package mctopalg

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// measuringSim is a simulated machine seen the way MCTOP-ALG sees the host:
// ForkPair hidden (only the Machine and MemoryProber methods are promoted),
// the Figure 5 loop answered by MeasurePair — here with the platform's
// ground-truth latency for every repetition. It records the threads it hands
// out and the DVFS-wait spins each of them runs.
type measuringSim struct {
	machine.Machine
	machine.MemoryProber
	p *sim.Platform

	threads []machine.Thread
	spins   map[machine.Thread]int
	pairs   int
}

var _ machine.PairMeasurer = (*measuringSim)(nil)

func newMeasuringSim(t *testing.T, p *sim.Platform) *measuringSim {
	t.Helper()
	sm, err := machine.NewSim(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &measuringSim{Machine: sm, MemoryProber: sm, p: p, spins: map[machine.Thread]int{}}
}

func (m *measuringSim) NewThread(ctx int) (machine.Thread, error) {
	th, err := m.Machine.NewThread(ctx)
	if err == nil {
		m.threads = append(m.threads, th)
	}
	return th, err
}

func (m *measuringSim) SpinSolo(th machine.Thread, units int64) int64 {
	m.spins[th]++
	return m.Machine.SpinSolo(th, units)
}

func (m *measuringSim) MeasurePair(x, y, reps int) []int64 {
	m.pairs++
	vals := make([]int64, reps)
	for i := range vals {
		vals[i] = m.p.PairLatency(x, y)
	}
	return vals
}

// TestInferPairMeasurer runs the non-Forker path: one worker, one
// MeasurePair per pair, the ground-truth topology out. Without DVFS every
// wait settles in exactly three spins, so the spin counts show the warm-ups:
// context x once for the rdtsc estimate and once per row, context y once
// per pair — no more than the host's loop always did.
func TestInferPairMeasurer(t *testing.T) {
	for _, p := range []*sim.Platform{sim.Ivy(), sim.Opteron()} {
		p.DVFS = false
		m := newMeasuringSim(t, p)
		res, err := Infer(m, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkAgainstGroundTruth(t, p, res.Topology)
		n := p.NumContexts()
		if want := n * (n - 1) / 2; res.Pairs != want || m.pairs != want {
			t.Errorf("%s: Pairs = %d, MeasurePair calls = %d, want %d", p.Name, res.Pairs, m.pairs, want)
		}
		if res.Retries != 0 || res.Sampled {
			t.Errorf("%s: retries = %d, sampled = %v on noise-free medians", p.Name, res.Retries, res.Sampled)
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

// TestInferNeedsAPairPath: a machine that can neither fork nor measure a
// pair natively has no step 1, and says which interfaces it lacks.
func TestInferNeedsAPairPath(t *testing.T) {
	sm, err := machine.NewSim(sim.Ivy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Infer(struct{ machine.Machine }{sm}, testOptions())
	if err == nil || !strings.Contains(err.Error(), "machine.Forker") || !strings.Contains(err.Error(), "machine.PairMeasurer") {
		t.Fatalf("err = %v, want one naming machine.Forker and machine.PairMeasurer", err)
	}
}
