package mctopalg

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// unforkedSim is a simulated machine seen the way MCTOP-ALG sees the host:
// NewFork hidden (only the Machine and MemoryProber methods are promoted),
// so every pair is measured by the machine's own Rounds on two re-pinned
// threads. It records the threads it hands out, the DVFS-wait spins each of
// them runs, and the Rounds calls it sees, including overlapping ones.
type unforkedSim struct {
	machine.Machine
	machine.MemoryProber

	mu      sync.Mutex
	threads []machine.Thread
	spins   map[machine.Thread]int

	rounds, inFlight atomic.Int32
	overlapped       atomic.Bool
}

func newUnforkedSim(t *testing.T, p *sim.Platform) *unforkedSim {
	t.Helper()
	sm, err := machine.NewSim(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &unforkedSim{Machine: sm, MemoryProber: sm, spins: map[machine.Thread]int{}}
}

func (m *unforkedSim) NewThread(ctx int) (machine.Thread, error) {
	th, err := m.Machine.NewThread(ctx)
	if err == nil {
		m.mu.Lock()
		m.threads = append(m.threads, th)
		m.mu.Unlock()
	}
	return th, err
}

func (m *unforkedSim) SpinSolo(th machine.Thread, units int64) int64 {
	m.mu.Lock()
	m.spins[th]++
	m.mu.Unlock()
	return m.Machine.SpinSolo(th, units)
}

func (m *unforkedSim) Rounds(x, y machine.Thread, reps int, overhead int64, dst []int64) []int64 {
	m.rounds.Add(1)
	if m.inFlight.Add(1) > 1 {
		m.overlapped.Store(true)
	}
	defer m.inFlight.Add(-1)
	return m.Machine.Rounds(x, y, reps, overhead, dst)
}

// TestInferWithoutForker runs the path of every machine that does not fork:
// one pair at a time whatever Parallelism asks for, the ground-truth topology
// out. Without DVFS every wait settles in exactly three spins, so the spin
// counts show the warm-ups: context x once for the rdtsc estimate and once
// per row, context y once per pair.
func TestInferWithoutForker(t *testing.T) {
	for _, p := range []*sim.Platform{sim.Ivy(), sim.Opteron()} {
		p.DVFS = false
		m := newUnforkedSim(t, p)
		opt := testOptions()
		opt.Parallelism = 8
		res, err := InferContext(context.Background(), m, opt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkAgainstGroundTruth(t, p, res.Topology)
		if m.overlapped.Load() {
			t.Errorf("%s: two Rounds calls were in flight at once", p.Name)
		}
		n := p.NumContexts()
		if want := n * (n - 1) / 2; res.Pairs != want || res.Sampled {
			t.Errorf("%s: Pairs = %d, sampled = %v, want %d pairs", p.Name, res.Pairs, res.Sampled, want)
		}
		if got, want := int(m.rounds.Load()), res.Pairs+res.Retries; got != want {
			t.Errorf("%s: %d Rounds calls, want one per pair and retry (%d)", p.Name, got, want)
		}
		x, y := m.threads[0], m.threads[1]
		if got, want := m.spins[x], 3*n; got != want {
			t.Errorf("%s: context x spun %d times, want %d (1 + %d rows, 3 spins a wait)", p.Name, got, want, n-1)
		}
		if got, want := m.spins[y], 3*n*(n-1)/2; got != want {
			t.Errorf("%s: context y spun %d times, want %d (one wait per pair)", p.Name, got, want)
		}
	}
}

// TestHostRdtscOverhead: on the host, the overhead MCTOP-ALG estimates and
// deducts is the cost of one clock read, not of a round trip to the
// thread's goroutine.
func TestHostRdtscOverhead(t *testing.T) {
	m := machine.NewHost()
	th, err := m.NewThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if ns := m.RdtscOverhead(th, overheadReps); ns >= 5000 {
		t.Errorf("host rdtsc overhead estimate = %d ns, want under 5 µs", ns)
	}
}
