package mctop

// Benchmarks of the paper pipeline's real work: inference (Figs. 1-3, 6,
// Section 3.5), placement construction (Fig. 7, Table 2), the real sort and
// merge kernels (Fig. 9), clustering and description-file I/O. Every
// model-derived paper number (Figs. 8-12, the merge-tree and backoff
// ablations) comes from `mctop-bench figures` and is pinned by its golden
// (cmd/mctop-bench/testdata/figures.golden.md); committed performance
// numbers come from bench/ (BENCHMARK.json). Neither lives here.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/msort"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

var (
	benchMu    sync.Mutex
	benchTopos = map[string]*topo.Topology{}
)

func benchTopo(b *testing.B, name string) *topo.Topology {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if t, ok := benchTopos[name]; ok {
		return t
	}
	t, err := Infer(context.Background(), name, 42, WithReps(51))
	if err != nil {
		b.Fatal(err)
	}
	benchTopos[name] = t
	return t
}

// benchInferTopology runs a full infer+enrich cycle per iteration — the
// figures 1-3 pipeline (topology graphs are pure functions of the result).
func benchInferTopology(b *testing.B, platform string) {
	for i := 0; i < b.N; i++ {
		top, err := Infer(context.Background(), platform, uint64(i+1), WithReps(21))
		if err != nil {
			b.Fatal(err)
		}
		if top.DotIntraSocket(0) == "" || top.DotCrossSocket() == "" {
			b.Fatal("empty graphs")
		}
	}
}

// BenchmarkFig1_OpteronTopology regenerates Figure 1: the Opteron's MCTOP
// with its three cross-socket levels and the OS-defying node mapping.
func BenchmarkFig1_OpteronTopology(b *testing.B) { benchInferTopology(b, "Opteron") }

// BenchmarkFig2_WestmereTopology regenerates Figure 2 (8-socket Westmere,
// level 4 at ~458 cycles).
func BenchmarkFig2_WestmereTopology(b *testing.B) { benchInferTopology(b, "Westmere") }

// BenchmarkFig3_SPARCTopology regenerates Figure 3 (SPARC T4-4 socket
// graph, 8 cores x 8 contexts).
func BenchmarkFig3_SPARCTopology(b *testing.B) { benchInferTopology(b, "SPARC") }

// BenchmarkFig6_AlgSteps runs the four steps of MCTOP-ALG on Ivy and
// reports the three detected latency levels as metrics.
func BenchmarkFig6_AlgSteps(b *testing.B) {
	var res *InferResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = InferDetailed(context.Background(), "Ivy", uint64(i+1), WithReps(51))
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil && len(res.Clusters) == 3 {
		b.ReportMetric(float64(res.Clusters[0].Median), "smt_cycles")
		b.ReportMetric(float64(res.Clusters[1].Median), "intra_cycles")
		b.ReportMetric(float64(res.Clusters[2].Median), "cross_cycles")
	}
}

// BenchmarkSec35_InferenceCost measures the simulated inference runtime
// with the paper's full n=2000 repetitions on Ivy (paper: ~3 s) and
// reports it as a metric. Westmere's 96 s figure is reproduced by
// cmd/mctop-bench (it is too slow for a default benchmark loop).
func BenchmarkSec35_InferenceCost(b *testing.B) {
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		p := sim.Ivy()
		m, err := machine.NewSim(p, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		simSeconds = m.S.SimulatedSeconds(res.Cycles)
	}
	b.ReportMetric(simSeconds, "sim_seconds")
}

// BenchmarkFig7_Placement builds the CON_HWC / 30-thread placement of
// Figure 7 and reports its derived values.
func BenchmarkFig7_Placement(b *testing.B) {
	top := benchTopo(b, "Ivy")
	var pl *Placement
	for i := 0; i < b.N; i++ {
		alloc, err := NewAlloc(top, ConHWC, WithThreads(30))
		if err != nil {
			b.Fatal(err)
		}
		pl = alloc.Placement()
	}
	b.ReportMetric(float64(pl.NCores()), "cores")
	b.ReportMetric(float64(pl.MaxLatency()), "max_latency_cycles")
	b.ReportMetric(pl.MinBandwidth(), "min_bw_gbs")
	_, total := pl.MaxPower(false)
	b.ReportMetric(total, "max_power_w")
}

// BenchmarkFig9_RealSort sorts real data with the actual mctop_sort
// implementation (correctness-bearing counterpart of the model).
func BenchmarkFig9_RealSort(b *testing.B) {
	top := benchTopo(b, "Ivy")
	base := make([]int32, 1<<20)
	s := uint32(2463534242)
	for i := range base {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		base[i] = int32(s)
	}
	data := make([]int32, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, base)
		if err := msort.MCTOPSort(data, top, 8, 0); err != nil {
			b.Fatal(err)
		}
	}
	if !msort.SortedInt32(data) {
		b.Fatal("not sorted")
	}
}

// --- Ablation benchmarks (design choices) ---

// BenchmarkAblation_Clustering compares the gap-based clusterer against a
// fixed-width bucketing alternative on the Opteron's tricky level set
// (197 vs 217 cycles), reporting how many levels each finds (truth: 4).
func BenchmarkAblation_Clustering(b *testing.B) {
	_, res, err := InferDetailed(context.Background(), "Opteron", 9, WithReps(51))
	if err != nil {
		b.Fatal(err)
	}
	var values []int64
	for i := range res.RawTable {
		for j := i + 1; j < len(res.RawTable); j++ {
			values = append(values, res.RawTable[i][j])
		}
	}
	var gap, fixed int
	for i := 0; i < b.N; i++ {
		gap = len(stats.Cluster(values, stats.ClusterOptions{RelGap: 0.04, AbsGap: 10}))
		// Fixed-width buckets of 64 cycles (a naive alternative): merges
		// the 197/217 levels.
		fixed = len(stats.Cluster(values, stats.ClusterOptions{RelGap: 1e-9, AbsGap: 64}))
	}
	b.ReportMetric(float64(gap), "gap_levels")
	b.ReportMetric(float64(fixed), "fixedwidth_levels")
}

// BenchmarkAblation_Repetitions measures inference success rates at
// different repetition counts under noise (the n=2000 / 7% stdev choice of
// Section 3.5).
func BenchmarkAblation_Repetitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, reps := range []int{5, 51, 201} {
			p := sim.Ivy()
			p.SpuriousRate = 0.02
			m, err := machine.NewSim(p, uint64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			o := mctopalg.Options{Reps: reps}
			_, _ = mctopalg.InferContext(context.Background(), m, o) // low reps may legitimately fail
		}
	}
}

// BenchmarkPlacementPolicies measures placement construction across all 12
// policies (Table 2).
func BenchmarkPlacementPolicies(b *testing.B) {
	top := benchTopo(b, "Westmere")
	for i := 0; i < b.N; i++ {
		for _, pol := range place.Policies() {
			if pol == place.PowerPolicy && !top.Power().Available() {
				continue
			}
			if _, err := place.NewFrom(top, pol, place.Options{NThreads: 64}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDescriptionFile measures encode+decode of a description file
// (Table 1's structures on disk).
func BenchmarkDescriptionFile(b *testing.B) {
	top := benchTopo(b, "SPARC")
	spec := top.Spec()
	for i := 0; i < b.N; i++ {
		path := b.TempDir() + "/t.mct"
		if err := topo.SaveFile(path, top); err != nil {
			b.Fatal(err)
		}
		if _, err := topo.LoadFile(path); err != nil {
			b.Fatal(err)
		}
	}
	_ = spec
}
