package place

// BenchmarkQueryIndex_PowerPlacement measures the POWER-policy placement
// build — the incremental-delta greedy (three class representatives per
// step, priced from running per-socket sums) against the pre-index
// exhaustive scan (a full PowerEstimate per remaining context per step).
// Haswell: 96 contexts, 4 sockets, the paper's largest machine with power
// measurements. Note the scan benchmark already benefits from the indexed
// PowerEstimate, so the true pre-index cost was higher still.

import (
	"path/filepath"
	"testing"

	"repro/internal/topo"
)

func benchGolden(b *testing.B, file string) *topo.Topology {
	b.Helper()
	top, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", file))
	if err != nil {
		b.Fatal(err)
	}
	return top
}

func BenchmarkQueryIndex_PowerPlacement(b *testing.B) {
	top := benchGolden(b, "haswell.mctop")
	top.GetLatency(0, 1) // build the index outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFrom(top, PowerPolicy, Options{NThreads: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryIndex_PowerPlacementPreindex(b *testing.B) {
	top := benchGolden(b, "haswell.mctop")
	top.GetLatency(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := powerOrderScan(top, top.NumSockets(), 64); len(got) != 64 {
			b.Fatal("scan produced wrong order length")
		}
	}
}

// BenchmarkQueryIndex_PlacementBuild measures the non-power placement build
// path (memoized socket/core orders; roundRobin capped at NThreads).
func BenchmarkQueryIndex_PlacementBuild(b *testing.B) {
	top := benchGolden(b, "westmere.mctop")
	top.GetLatency(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range []Policy{ConHWC, BalanceCore, RRCore} {
			if _, err := NewFrom(top, pol, Options{NThreads: 64}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQueryIndex_PinNext measures the free-slot cursor under a full
// pin sweep (the serving pattern: every worker thread pins once).
func BenchmarkQueryIndex_PinNext(b *testing.B) {
	top := benchGolden(b, "westmere.mctop")
	pl, err := NewFrom(top, Sequential, Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := pl.NThreads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if _, ok := pl.PinNext(); !ok {
				b.Fatal("ran out of slots")
			}
		}
		b.StopTimer()
		for j := 0; j < n; j++ {
			pl.Unpin(j)
		}
		b.StartTimer()
	}
}
