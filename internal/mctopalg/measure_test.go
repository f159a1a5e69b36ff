package mctopalg

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// forkedPairFixture builds a per-pair forked machine with both threads
// created and a warmed scratch, mirroring the steady state of a
// measurement worker between pairs.
func forkedPairFixture(tb testing.TB) (machine.Machine, machine.Thread, machine.Thread, *Options, *scratch) {
	tb.Helper()
	p, err := sim.ByName("gen:ring:s8:c4:t2")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machine.NewSim(p, 17)
	if err != nil {
		tb.Fatal(err)
	}
	fm, err := m.ForkPair(2, 19)
	if err != nil {
		tb.Fatal(err)
	}
	x, err := fm.NewThread(2)
	if err != nil {
		tb.Fatal(err)
	}
	y, err := fm.NewThread(19)
	if err != nil {
		tb.Fatal(err)
	}
	opt := testOptions()
	opt.fillDefaults()
	sc := newScratch(&opt)
	return fm, x, y, &opt, sc
}

// TestMeasurePairSteadyStateAllocs pins the hot loop's allocation behavior:
// once a worker's scratch buffers are warm, measuring a pair must not
// allocate at all. Step 1 runs this path hundreds of thousands of times on
// large platforms, so any per-pair allocation multiplies into real GC
// pressure.
func TestMeasurePairSteadyStateAllocs(t *testing.T) {
	fm, x, y, opt, sc := forkedPairFixture(t)
	overhead := sc.rdtscOverhead(fm, x)
	retries := 0
	measurePair(fm, opt, x, y, overhead, &retries, sc) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		measurePair(fm, opt, x, y, overhead, &retries, sc)
	})
	if allocs != 0 {
		t.Fatalf("measurePair allocates %.1f objects per pair in steady state, want 0", allocs)
	}
	ovAllocs := testing.AllocsPerRun(100, func() {
		sc.rdtscOverhead(fm, x) // memoized: same thread, no re-estimation
	})
	if ovAllocs != 0 {
		t.Fatalf("rdtscOverhead allocates %.1f objects per call in steady state, want 0", ovAllocs)
	}
	estAllocs := testing.AllocsPerRun(100, func() {
		fm.RdtscOverhead(x, overheadReps) // what each fresh fork's memo miss runs
	})
	if estAllocs != 0 {
		t.Fatalf("a fork's RdtscOverhead allocates %.1f objects per estimate, want 0", estAllocs)
	}
}

// BenchmarkMeasurePairSteadyState is the per-pair cost of step 1's inner
// loop (the zero-allocation property itself is pinned by the test above).
func BenchmarkMeasurePairSteadyState(b *testing.B) {
	fm, x, y, opt, sc := forkedPairFixture(b)
	overhead := sc.rdtscOverhead(fm, x)
	retries := 0
	measurePair(fm, opt, x, y, overhead, &retries, sc) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measurePair(fm, opt, x, y, overhead, &retries, sc)
	}
}
