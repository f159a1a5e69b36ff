package machine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestSimMachineBasics(t *testing.T) {
	m, err := NewSim(sim.Ivy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "Ivy" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.NumHWContexts() != 40 || m.NumNodes() != 2 {
		t.Errorf("dims = %d ctx / %d nodes", m.NumHWContexts(), m.NumNodes())
	}
	if m.FreqMaxGHz() != 2.8 {
		t.Errorf("freq = %g", m.FreqMaxGHz())
	}
	if !m.PowerAvailable() {
		t.Error("Ivy should expose power")
	}
	l1, l2, llc := m.CacheSizes()
	if l1 != 32<<10 || l2 != 256<<10 || llc != 25<<20 {
		t.Errorf("cache sizes = %d/%d/%d", l1, l2, llc)
	}
}

// TestFigure5Protocol drives the paper's lock-step measurement through the
// generic Machine interface (the Rounds MCTOP-ALG calls) and checks that the
// medians identify the three latency levels of Ivy.
func TestFigure5Protocol(t *testing.T) {
	p := sim.Ivy()
	p.DVFS = false
	sm, err := NewSim(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine = sm
	x, err := m.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.NewThread(20)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(yCtx int) int64 {
		if err := y.Pin(yCtx); err != nil {
			t.Fatal(err)
		}
		return stats.Median(m.Rounds(x, y, 300, p.RdtscOverhead, nil))
	}
	smt := measure(20)
	intra := measure(1)
	cross := measure(10)
	if !(smt < intra && intra < cross) {
		t.Errorf("levels not ordered: smt=%d intra=%d cross=%d", smt, intra, cross)
	}
	if smt < 24 || smt > 32 {
		t.Errorf("SMT level = %d, want ~28", smt)
	}
	if cross < 290 || cross > 325 {
		t.Errorf("cross level = %d, want ~308", cross)
	}
}

// TestForkPairIsOneAllocation pins what a pair fork costs: the fork, its
// simulator and the pair's two threads are one allocation, the same on 40
// contexts as on 2048. (A fork used to allocate a DVFS counter for every
// core of the platform, three allocations before its threads.) The fork
// stays at most 192 bytes: with Go 1.24 on 2 vCPUs a burst of pointerful
// objects of 208 bytes or more allocated about 3× slower.
func TestForkPairIsOneAllocation(t *testing.T) {
	if size := unsafe.Sizeof(simFork{}); size > 192 {
		t.Errorf("a fork is %d bytes, past 192", size)
	}
	for _, name := range []string{"Ivy", "SPARC", "gen:mesh:s64:c16:t2"} {
		p, err := sim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewSim(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		last := p.NumContexts() - 1
		fork := testing.AllocsPerRun(100, func() {
			if _, err := m.ForkPair(0, last); err != nil {
				t.Fatal(err)
			}
		})
		pair := testing.AllocsPerRun(100, func() {
			f, _ := m.ForkPair(0, last)
			if _, err := f.NewThread(0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.NewThread(last); err != nil {
				t.Fatal(err)
			}
		})
		if fork != 1 || pair != 1 {
			t.Errorf("%s: ForkPair allocates %.1f objects, with its two threads %.1f; want 1 and 1", name, fork, pair)
		}
	}
}

// TestReforkIsFree: a worker's fork re-forked for a new pair, with the
// pair's two threads, allocates nothing, and is then the machine ForkPair
// builds for that pair: the same rdtsc-overhead estimate and the same
// rounds. The threads it hands out are those of its previous pair.
func TestReforkIsFree(t *testing.T) {
	p, err := sim.ByName("SPARC")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSim(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := m.NewFork()
	if err := f.Refork(3, 200); err != nil {
		t.Fatal(err)
	}
	x0, _ := f.NewThread(3)
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Refork(0, 255); err != nil {
			t.Fatal(err)
		}
		if _, err := f.NewThread(0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.NewThread(255); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-forking a fork for a pair allocates %.1f objects, want 0", allocs)
	}

	measure := func(fm Machine) ([]int64, int64, Thread) {
		x, _ := fm.NewThread(17)
		y, _ := fm.NewThread(130)
		ovh := fm.RdtscOverhead(x, 101)
		return fm.Rounds(x, y, 51, ovh, nil), ovh, x
	}
	if err := f.Refork(17, 130); err != nil {
		t.Fatal(err)
	}
	got, gotOvh, x := measure(f)
	once, err := m.ForkPair(17, 130)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOvh, _ := measure(once)
	if gotOvh != wantOvh || !reflect.DeepEqual(got, want) {
		t.Errorf("re-forked fork measured overhead %d and %v, a one-shot fork %d and %v", gotOvh, got, wantOvh, want)
	}
	if x != x0 {
		t.Error("a re-forked fork's first thread is a new value")
	}
}

func TestSimMachineOSView(t *testing.T) {
	m, _ := NewSim(sim.Opteron(), 1)
	v := m.OSView()
	if v.Contexts != 48 || v.Nodes != 8 {
		t.Errorf("OS view dims = %d/%d", v.Contexts, v.Nodes)
	}
	// The simulated Opteron OS lies about node mapping (footnote 1).
	if v.NodeOfSocket[0] == 0 {
		t.Error("Opteron OS node mapping should be wrong")
	}
	m2, _ := NewSim(sim.Ivy(), 1)
	if v2 := m2.OSView(); v2.NodeOfSocket[0] != 0 || v2.NodeOfSocket[1] != 1 {
		t.Error("Ivy OS node mapping should be identity")
	}
}

func TestSimMachineRejectsForeignThread(t *testing.T) {
	m1, _ := NewSim(sim.Ivy(), 1)
	host := NewHost()
	ht, err := host.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic passing a host thread to SimMachine")
		}
	}()
	m1.SpinSolo(ht, 10)
}

func TestHostMachineBasics(t *testing.T) {
	m := NewHost()
	if m.NumHWContexts() < 1 || m.NumNodes() < 1 {
		t.Fatalf("host dims = %d/%d", m.NumHWContexts(), m.NumNodes())
	}
	th, err := m.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if ts := th.Rdtsc(); ts <= 0 {
		t.Error("host Rdtsc returned non-positive timestamp")
	}
	if _, err := m.NewThread(-1); err == nil {
		t.Error("expected error for negative context")
	}
	if err := th.Pin(0); err != nil {
		t.Error(err)
	}
	if err := th.Pin(1 << 20); err == nil {
		t.Error("expected error pinning far out of range")
	}
}

func TestHostSpinPrimitives(t *testing.T) {
	m := NewHost()
	a, _ := m.NewThread(0)
	d := m.SpinSolo(a, 200_000)
	if d <= 0 {
		t.Errorf("solo spin duration = %d", d)
	}
	if m.NumHWContexts() >= 2 {
		b, _ := m.NewThread(1)
		d1, d2 := m.SpinTogether(a, b, 200_000)
		if d1 <= 0 || d2 <= 0 {
			t.Errorf("together durations = %d/%d", d1, d2)
		}
	}
}

func TestHostRounds(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs")
	}
	m := NewHost()
	x, err := m.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.NewThread(1)
	if err != nil {
		t.Fatal(err)
	}
	vals := m.Rounds(x, y, 50, 0, nil)
	if len(vals) != 50 {
		t.Fatalf("got %d values", len(vals))
	}
	med := stats.Median(vals)
	if med < 0 {
		t.Errorf("median latency = %d ns", med)
	}
	// Sanity only: a CAS ping-pong between two CPUs should not appear to
	// take longer than a millisecond even on a noisy CI box.
	if med > 1_000_000 {
		t.Errorf("median latency implausibly high: %d ns", med)
	}
}

// TestHostThreadsExit: a host thread's OS-locked goroutine ends once the
// thread is unreachable and collected, instead of leaking for the life of
// the process. It counts the host threads' goroutines alone: the process's
// other goroutines come and go (the one running cleanups, say), and a
// baseline taken over all of them could include one that is gone by the
// time the threads are counted.
func TestHostThreadsExit(t *testing.T) {
	m := NewHost()
	waitHostThreadsExit(t, "before the test made any") // earlier tests' threads
	const threads = 8
	// The threads are held until their goroutines are counted: a thread
	// that became unreachable earlier could be collected, and its
	// goroutine gone, before the count.
	held := make([]Thread, 0, threads)
	for i := 0; i < threads; i++ {
		th, err := m.NewThread(i % m.NumHWContexts())
		if err != nil {
			t.Fatal(err)
		}
		m.SpinSolo(th, 1000)
		held = append(held, th)
	}
	if n := hostThreadGoroutines(); n != threads {
		t.Fatalf("%d host-thread goroutines with %d live threads", n, threads)
	}
	runtime.KeepAlive(held)
	clear(held) // from here on nothing reaches the threads
	waitHostThreadsExit(t, "after the threads became unreachable")
}

// waitHostThreadsExit collects garbage until no host thread's goroutine is
// left, and fails if one still is after 10 s.
func waitHostThreadsExit(t *testing.T, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := hostThreadGoroutines(); n > 0; n = hostThreadGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d host-thread goroutines 10 s %s", n, when)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// hostThreadGoroutines counts the goroutines running a host thread's
// command loop (HostMachine.NewThread's goroutine).
func hostThreadGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "machine.(*HostMachine).NewThread.func1(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
