package mctopalg

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// forkedWorkerFixture builds a measurement worker on a forked machine — a
// scratch owning one fork — and warms it with one pair, the steady state
// of a worker between pairs.
func forkedWorkerFixture(tb testing.TB) (*Options, *scratch) {
	tb.Helper()
	p, err := sim.ByName("gen:ring:s8:c4:t2")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machine.NewSim(p, 17)
	if err != nil {
		tb.Fatal(err)
	}
	opt := testOptions()
	opt.fillDefaults()
	sc := newScratch(&opt)
	sc.fork = m.NewFork()
	if _, err := measureForked(&opt, sc, 2, 19); err != nil {
		tb.Fatal(err)
	}
	return &opt, sc
}

// TestMeasurePairSteadyStateAllocs pins the hot loop's allocation behavior:
// once a worker's scratch buffers are warm, measuring a whole pair — the
// re-fork, the pair's two threads, the DVFS waits, the overhead estimate
// and the stability rule's rounds — must not allocate at all. Step 1 runs
// this path hundreds of thousands of times on large platforms, so any
// per-pair allocation multiplies into real GC pressure.
func TestMeasurePairSteadyStateAllocs(t *testing.T) {
	opt, sc := forkedWorkerFixture(t)
	pairs := [][2]int{{2, 19}, {0, 63}, {5, 6}}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := measureForked(opt, sc, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("measureForked allocates %.1f objects per pair on a warm worker, want 0", allocs)
	}

	x, err := sc.fork.NewThread(2)
	if err != nil {
		t.Fatal(err)
	}
	ovAllocs := testing.AllocsPerRun(100, func() {
		sc.rdtscOverhead(sc.fork, x) // memoized: same thread, no re-estimation
	})
	if ovAllocs != 0 {
		t.Fatalf("rdtscOverhead allocates %.1f objects per call in steady state, want 0", ovAllocs)
	}
}

// TestReforkedPairIsFreshPair: a worker's pair measured on its re-forked
// fork equals the pair measured on a one-shot fork by a fresh worker —
// median, retries and cycles — whatever the worker measured before. The
// re-forked fork hands out the previous pair's thread values, so a memo
// kept past the pair would skip the new pair's overhead estimate and move
// its cycles.
func TestReforkedPairIsFreshPair(t *testing.T) {
	opt, warm := forkedWorkerFixture(t)
	p, err := sim.ByName("gen:ring:s8:c4:t2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewSim(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{2, 19}, {2, 20}, {40, 41}} {
		fresh := newScratch(opt)
		fresh.fork = m.NewFork()
		want, err := measureForked(opt, fresh, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		retries, cycles := warm.retries, warm.cycles
		got, err := measureForked(opt, warm, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want || warm.retries-retries != fresh.retries || warm.cycles-cycles != fresh.cycles {
			t.Errorf("pair %v: re-forked worker measured %d (%d retries, %d cycles), fresh worker %d (%d, %d)",
				pair, got, warm.retries-retries, warm.cycles-cycles, want, fresh.retries, fresh.cycles)
		}
	}
}

// BenchmarkMeasurePairSteadyState is the per-pair cost of step 1's inner
// loop on a warm worker (the zero-allocation property itself is pinned by
// the test above).
func BenchmarkMeasurePairSteadyState(b *testing.B) {
	opt, sc := forkedWorkerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measureForked(opt, sc, 2, 19); err != nil {
			b.Fatal(err)
		}
	}
}
