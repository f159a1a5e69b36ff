package machine

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// HostMachine is a best-effort implementation of Machine on the real host.
//
// It exists to show that MCTOP-ALG's code path is genuinely portable: the
// same algorithm that runs against the simulator can probe the machine the
// tests run on. A Thread is a goroutine locked to an OS thread and pinned
// with sched_setaffinity (on Linux); Rounds runs Figure 5's loop on two of
// them with a spin barrier and CAS ping-pong on one padded cache line, and
// timestamps come from the monotonic clock, whose read cost RdtscOverhead
// times. The host does not fork — its measurements must not overlap — so
// MCTOP-ALG measures it one pair at a time.
//
// Its precision is nowhere near the paper's C implementation — the Go
// runtime, its garbage collector and the lack of a raw rdtsc intrinsic add
// microsecond-scale noise to a nanosecond-scale signal (this is exactly why
// the experiments in this repository run on the simulator instead). Treat
// host-inferred topologies as illustrative.
type HostMachine struct {
	nctx  int
	nodes int
}

var _ Machine = (*HostMachine)(nil)

// NewHost probes the current host.
func NewHost() *HostMachine {
	return &HostMachine{nctx: runtime.NumCPU(), nodes: countHostNodes()}
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

// Name identifies the host.
func (m *HostMachine) Name() string {
	return fmt.Sprintf("host-%s-%s-%dcpu", runtime.GOOS, runtime.GOARCH, m.nctx)
}

// NumHWContexts returns the OS CPU count.
func (m *HostMachine) NumHWContexts() int { return m.nctx }

// NumNodes returns the NUMA node count reported by sysfs (1 elsewhere).
func (m *HostMachine) NumNodes() int { return m.nodes }

// paddedLine is a CAS target occupying its own cache line.
type paddedLine struct {
	_ [64]byte
	v atomic.Int64
	_ [64]byte
}

// cas increments the line with a compare-and-swap, bringing it into the
// Modified state on the calling CPU.
func (l *paddedLine) cas() {
	for {
		old := l.v.Load()
		if l.v.CompareAndSwap(old, old+1) {
			return
		}
	}
}

// hostEpoch anchors Rdtsc's monotonic timestamps.
var hostEpoch = time.Now()

// hostThread executes operations on a dedicated OS-locked goroutine. The
// goroutine holds only the command channel, so an unreachable hostThread is
// collected and its cleanup closes the channel, which ends the goroutine.
type hostThread struct {
	m    *HostMachine
	cmds chan func()
}

// NewThread creates an OS-thread-backed worker pinned (best effort) to ctx.
func (m *HostMachine) NewThread(ctx int) (Thread, error) {
	if ctx < 0 || ctx >= m.nctx {
		return nil, fmt.Errorf("machine: context %d out of range [0,%d)", ctx, m.nctx)
	}
	cmds := make(chan func())
	ready := make(chan struct{})
	go func() {
		// The goroutine exits still locked, so the runtime retires the OS
		// thread together with the affinity mask setAffinity narrowed.
		runtime.LockOSThread()
		setAffinity(ctx)
		close(ready)
		for f := range cmds {
			f()
		}
	}()
	<-ready
	t := &hostThread{m: m, cmds: cmds}
	runtime.AddCleanup(t, func(c chan func()) { close(c) }, cmds)
	return t, nil
}

// run executes f on t's goroutine and waits for it.
func (t *hostThread) run(f func()) {
	done := make(chan struct{})
	t.cmds <- func() { f(); close(done) }
	<-done
	runtime.KeepAlive(t) // no cleanup may close cmds under the send
}

// together runs fx on x's goroutine and fy on y's concurrently and waits for
// both. x and y must be distinct threads.
func together(x, y *hostThread, fx, fy func()) {
	done := make(chan struct{}, 2)
	x.cmds <- func() { fx(); done <- struct{}{} }
	y.cmds <- func() { fy(); done <- struct{}{} }
	<-done
	<-done
	runtime.KeepAlive(x)
	runtime.KeepAlive(y)
}

func (t *hostThread) Pin(ctx int) error {
	if ctx < 0 || ctx >= t.m.nctx {
		return fmt.Errorf("machine: context %d out of range [0,%d)", ctx, t.m.nctx)
	}
	t.run(func() { setAffinity(ctx) })
	return nil
}

// Rdtsc reads the monotonic clock on the calling goroutine: a hop to the
// thread's own goroutine would cost far more than the read it times.
func (t *hostThread) Rdtsc() int64 { return int64(time.Since(hostEpoch)) }

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

// SpinSolo measures a calibrated spin loop on one thread.
func (m *HostMachine) SpinSolo(t Thread, units int64) int64 {
	var d int64
	t.(*hostThread).run(func() {
		start := time.Now()
		spin(units)
		d = time.Since(start).Nanoseconds()
	})
	return d
}

// SpinTogether measures the calibrated loop on both threads concurrently.
func (m *HostMachine) SpinTogether(t1, t2 Thread, units int64) (int64, int64) {
	var gate atomic.Int64
	var d1, d2 int64
	body := func(out *int64) func() {
		return func() {
			gate.Add(1)
			for gate.Load() < 2 {
			}
			start := time.Now()
			spin(units)
			*out = time.Since(start).Nanoseconds()
		}
	}
	together(t1.(*hostThread), t2.(*hostThread), body(&d1), body(&d2))
	return d1, d2
}

// RdtscOverhead times reps back-to-back clock reads on the calling goroutine
// (where Rdtsc reads) and returns the median difference in nanoseconds.
func (m *HostMachine) RdtscOverhead(t Thread, reps int) int64 {
	vals := make([]int64, reps)
	for i := range vals {
		s := t.Rdtsc()
		vals[i] = t.Rdtsc() - s
	}
	return stats.MedianInPlace(vals)
}

// Rounds runs Figure 5's loop natively on the two threads' goroutines: a
// spin barrier on a shared phase counter, y's CAS, the barrier again, then
// x's CAS on the same padded line between two clock reads. Each repetition
// is that difference less overhead, clamped at 0, in nanoseconds.
func (m *HostMachine) Rounds(x, y Thread, reps int, overhead int64, dst []int64) []int64 {
	hx, hy := x.(*hostThread), y.(*hostThread)
	vals := slices.Grow(dst[:0], reps)[:reps]
	var line paddedLine
	var phase atomic.Int64
	arrive := func(target int64) {
		phase.Add(1)
		for phase.Load() < target {
		}
	}
	together(hx, hy, func() {
		for i := range vals {
			arrive(int64(4*i + 2))
			arrive(int64(4*i + 4))
			start := hx.Rdtsc()
			line.cas()
			vals[i] = max(hx.Rdtsc()-start-overhead, 0)
		}
	}, func() {
		for i := 0; i < reps; i++ {
			arrive(int64(4*i + 2))
			line.cas()
			arrive(int64(4*i + 4))
		}
	})
	return vals
}
