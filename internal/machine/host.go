package machine

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// HostMachine is a best-effort implementation of Machine on the real host.
//
// It exists to show that MCTOP-ALG's code path is genuinely portable: the
// same algorithm that runs against the simulator can probe the machine the
// tests run on, using goroutines locked to OS threads, sched_setaffinity
// (on Linux), atomic CAS on padded cache lines, and the monotonic clock.
//
// Its precision is nowhere near the paper's C implementation — the Go
// runtime, its garbage collector and the lack of a raw rdtsc intrinsic add
// microsecond-scale noise to a nanosecond-scale signal (this is exactly why
// the experiments in this repository run on the simulator instead). Treat
// host-inferred topologies as illustrative.
type HostMachine struct {
	nctx  int
	nodes int
	// rdtscOverheadNs is the calibrated cost of one clock read.
	rdtscOverheadNs int64
}

var (
	_ Machine      = (*HostMachine)(nil)
	_ PairMeasurer = (*HostMachine)(nil)
)

// NewHost probes the current host.
func NewHost() *HostMachine {
	m := &HostMachine{
		nctx:  runtime.NumCPU(),
		nodes: countHostNodes(),
	}
	m.calibrateClock()
	return m
}

func countHostNodes() int {
	n := 0
	for {
		if _, err := os.Stat(fmt.Sprintf("/sys/devices/system/node/node%d", n)); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

func (m *HostMachine) calibrateClock() {
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	m.rdtscOverheadNs = time.Since(start).Nanoseconds() / n
}

// Name identifies the host.
func (m *HostMachine) Name() string {
	return fmt.Sprintf("host-%s-%s-%dcpu", runtime.GOOS, runtime.GOARCH, m.nctx)
}

// NumHWContexts returns the OS CPU count.
func (m *HostMachine) NumHWContexts() int { return m.nctx }

// NumNodes returns the NUMA node count reported by sysfs (1 elsewhere).
func (m *HostMachine) NumNodes() int { return m.nodes }

// OSView returns the operating system's topology: on Linux it parses
// /sys/devices/system/cpu topology files (the libnuma/hwloc information
// base), elsewhere — or when sysfs is hidden — a flat one-core-per-context
// view.
func (m *HostMachine) OSView() OSView {
	if v, ok := hostOSView(m.nctx, m.nodes); ok {
		return v
	}
	v := OSView{
		Contexts:     m.nctx,
		Nodes:        m.nodes,
		CoreOfCtx:    make([]int, m.nctx),
		SocketOfCtx:  make([]int, m.nctx),
		NodeOfSocket: make([]int, m.nodes),
	}
	for i := range v.CoreOfCtx {
		v.CoreOfCtx[i] = i
	}
	for i := range v.NodeOfSocket {
		v.NodeOfSocket[i] = i
	}
	return v
}

// paddedLine is a CAS target occupying its own cache line.
type paddedLine struct {
	_ [64]byte
	v int64
	_ [64]byte
}

// hostThread executes operations on a dedicated OS-locked goroutine.
type hostThread struct {
	m    *HostMachine
	cmds chan func()
	line map[uint64]*paddedLine
}

// NewThread creates an OS-thread-backed worker pinned (best effort) to ctx.
func (m *HostMachine) NewThread(ctx int) (Thread, error) {
	if ctx < 0 || ctx >= m.nctx {
		return nil, fmt.Errorf("machine: context %d out of range [0,%d)", ctx, m.nctx)
	}
	t := &hostThread{m: m, cmds: make(chan func()), line: make(map[uint64]*paddedLine)}
	ready := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setAffinity(ctx)
		close(ready)
		for f := range t.cmds {
			f()
		}
	}()
	<-ready
	return t, nil
}

func (t *hostThread) run(f func()) {
	done := make(chan struct{})
	t.cmds <- func() { f(); close(done) }
	<-done
}

func (t *hostThread) Pin(ctx int) error {
	if ctx < 0 || ctx >= t.m.nctx {
		return fmt.Errorf("machine: context %d out of range [0,%d)", ctx, t.m.nctx)
	}
	t.run(func() { setAffinity(ctx) })
	return nil
}

func (t *hostThread) Rdtsc() int64 {
	var v int64
	t.run(func() { v = time.Now().UnixNano() })
	return v
}

func (t *hostThread) lineFor(line uint64) *paddedLine {
	l, ok := t.line[line]
	if !ok {
		l = hostLines.get(line)
		t.line[line] = l
	}
	return l
}

func (t *hostThread) CAS(line uint64) {
	t.run(func() {
		l := t.lineFor(line)
		for {
			old := atomic.LoadInt64(&l.v)
			if atomic.CompareAndSwapInt64(&l.v, old, old+1) {
				return
			}
		}
	})
}

func spin(units int64) {
	x := uint64(88172645463325252)
	for i := int64(0); i < units; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		panic("unreachable")
	}
}

// hostLineTable interns shared CAS targets so two threads naming the same
// line id hit the same cache line.
type hostLineTable struct {
	mu    chan struct{} // 1-slot semaphore; avoids importing sync for one lock
	lines map[uint64]*paddedLine
}

var hostLines = &hostLineTable{mu: make(chan struct{}, 1), lines: make(map[uint64]*paddedLine)}

func (h *hostLineTable) get(line uint64) *paddedLine {
	h.mu <- struct{}{}
	defer func() { <-h.mu }()
	l, ok := h.lines[line]
	if !ok {
		l = &paddedLine{}
		h.lines[line] = l
	}
	return l
}

// Barrier rendezvouses two host threads. Channel-based: precise spin
// barriers only matter inside MeasurePair, which bypasses this path.
func (m *HostMachine) Barrier(x, y Thread) {
	done := make(chan struct{}, 2)
	x.(*hostThread).cmds <- func() { done <- struct{}{} }
	y.(*hostThread).cmds <- func() { done <- struct{}{} }
	<-done
	<-done
}

// SpinSolo measures a calibrated spin loop on one thread.
func (m *HostMachine) SpinSolo(t Thread, units int64) int64 {
	ht := t.(*hostThread)
	var d int64
	ht.run(func() {
		start := time.Now()
		spin(units)
		d = time.Since(start).Nanoseconds()
	})
	return d
}

// SpinTogether measures the calibrated loop on both threads concurrently.
func (m *HostMachine) SpinTogether(t1, t2 Thread, units int64) (int64, int64) {
	h1, h2 := t1.(*hostThread), t2.(*hostThread)
	var gate, d1, d2 int64
	done := make(chan struct{}, 2)
	body := func(out *int64) func() {
		return func() {
			atomic.AddInt64(&gate, 1)
			for atomic.LoadInt64(&gate) < 2 {
			}
			start := time.Now()
			spin(units)
			*out = time.Since(start).Nanoseconds()
			done <- struct{}{}
		}
	}
	h1.cmds <- body(&d1)
	h2.cmds <- body(&d2)
	<-done
	<-done
	return d1, d2
}

// MeasurePair runs the full lock-step loop of Figure 5 natively: two
// OS-locked threads, a sense-reversing spin barrier, CAS ping-pong on one
// padded line, per-repetition clock reads. Returns reps latencies in
// nanoseconds with the clock overhead deducted.
func (m *HostMachine) MeasurePair(xCtx, yCtx, reps int) []int64 {
	results := make([]int64, reps)
	var line paddedLine
	var phase int64
	arrive := func(target int64) {
		atomic.AddInt64(&phase, 1)
		for atomic.LoadInt64(&phase) < target {
		}
	}
	done := make(chan struct{}, 2)

	go func() { // thread y
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setAffinity(yCtx)
		for i := 0; i < reps; i++ {
			arrive(int64(4*i + 2))
			for {
				old := atomic.LoadInt64(&line.v)
				if atomic.CompareAndSwapInt64(&line.v, old, old+1) {
					break
				}
			}
			arrive(int64(4*i + 4))
		}
		done <- struct{}{}
	}()

	go func() { // thread x
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setAffinity(xCtx)
		for i := 0; i < reps; i++ {
			arrive(int64(4*i + 2))
			arrive(int64(4*i + 4))
			start := time.Now()
			for {
				old := atomic.LoadInt64(&line.v)
				if atomic.CompareAndSwapInt64(&line.v, old, old+1) {
					break
				}
			}
			lat := time.Since(start).Nanoseconds() - m.rdtscOverheadNs
			if lat < 0 {
				lat = 0
			}
			results[i] = lat
		}
		done <- struct{}{}
	}()

	<-done
	<-done
	return results
}
