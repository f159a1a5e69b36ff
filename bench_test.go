package mctop

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. The full paper-style tables are printed by cmd/mctop-bench;
// these benchmarks regenerate the same numbers under `go test -bench` and
// expose the headline values as custom metrics. Committed performance
// numbers come from bench/ (BENCHMARK.json), not from here.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/contend"
	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/mapreduce"
	"repro/internal/mctopalg"
	"repro/internal/msort"
	"repro/internal/omp"
	"repro/internal/place"
	"repro/internal/reduce"
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
		res, err := mctopalg.Infer(m, mctopalg.DefaultOptions())
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

// BenchmarkFig8_Locks runs the educated-backoff lock sweep on Ivy and
// reports the average educated/baseline throughput ratio per algorithm
// (paper: TAS +12%, TTAS +11%, TICKET +39% across all platforms).
func BenchmarkFig8_Locks(b *testing.B) {
	top := benchTopo(b, "Ivy")
	p := sim.Ivy()
	quantum := top.MaxLatency()
	ratios := map[locks.Algorithm]float64{}
	for i := 0; i < b.N; i++ {
		for _, alg := range locks.Algorithms() {
			var sum float64
			var count int
			for n := 2; n <= p.NumContexts(); n *= 2 {
				threads := make([]int, n)
				for t := range threads {
					threads[t] = t
				}
				cfg := contend.Config{
					Platform: p, Threads: threads, Alg: alg,
					CSWork: 1000, PauseWork: 100, Horizon: 2_000_000,
				}
				_, _, ratio, err := contend.RelativeThroughput(cfg, quantum)
				if err != nil {
					b.Fatal(err)
				}
				sum += ratio
				count++
			}
			ratios[alg] = sum / float64(count)
		}
	}
	b.ReportMetric(ratios[locks.AlgTAS], "tas_ratio")
	b.ReportMetric(ratios[locks.AlgTTAS], "ttas_ratio")
	b.ReportMetric(ratios[locks.AlgTicket], "ticket_ratio")
}

// BenchmarkFig9_Sort evaluates the Figure 9 model (1 GB sort, full machine)
// on Ivy and reports gnu vs mctop vs mctop_sse totals.
func BenchmarkFig9_Sort(b *testing.B) {
	top := benchTopo(b, "Ivy")
	var gnu, mct, sse msort.Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		gnu, err = msort.ModelFig9(top, msort.VariantGNU, top.NumHWContexts())
		if err != nil {
			b.Fatal(err)
		}
		mct, _ = msort.ModelFig9(top, msort.VariantMCTOP, top.NumHWContexts())
		sse, _ = msort.ModelFig9(top, msort.VariantMCTOPSSE, top.NumHWContexts())
	}
	b.ReportMetric(gnu.TotalSec(), "gnu_sec")
	b.ReportMetric(mct.TotalSec(), "mctop_sec")
	b.ReportMetric(sse.TotalSec(), "mctop_sse_sec")
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

// BenchmarkFig10_Metis evaluates the Figure 10 model on Ivy and reports
// the mean relative time of the four workloads.
func BenchmarkFig10_Metis(b *testing.B) {
	top := benchTopo(b, "Ivy")
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := mapreduce.ModelFig10(top)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.RelTime
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "rel_time_avg")
}

// BenchmarkFig11_EnergyPlacement evaluates the POWER-policy trade on Ivy.
func BenchmarkFig11_EnergyPlacement(b *testing.B) {
	top := benchTopo(b, "Ivy")
	var rows []mapreduce.Fig11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = mapreduce.ModelFig11(top)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(rows[0].RelTime, "kmeans_rel_time")
		b.ReportMetric(rows[0].RelEnergy, "kmeans_rel_energy")
		b.ReportMetric(rows[0].EnergyEfficiency, "kmeans_efficiency")
	}
}

// BenchmarkFig12_OpenMP evaluates the MCTOP MP model on Ivy and reports
// the average relative time over the six graph workloads.
func BenchmarkFig12_OpenMP(b *testing.B) {
	top := benchTopo(b, "Ivy")
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := omp.ModelFig12(top)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.RelTime
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "rel_time_avg")
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
	var offDiag []int64
	for i := range res.RawTable {
		for j := i + 1; j < len(res.RawTable); j++ {
			offDiag = append(offDiag, res.RawTable[i][j])
		}
	}
	var gap, fixed int
	for i := 0; i < b.N; i++ {
		gap = len(stats.Cluster(offDiag, stats.ClusterOptions{RelGap: 0.04, AbsGap: 10}))
		// Fixed-width buckets of 64 cycles (a naive alternative): merges
		// the 197/217 levels.
		fixed = len(stats.Cluster(offDiag, stats.ClusterOptions{RelGap: 1e-9, AbsGap: 64}))
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
			o := mctopalg.DefaultOptions()
			o.Reps = reps
			_, _ = mctopalg.Infer(m, o) // low reps may legitimately fail
		}
	}
}

// BenchmarkAblation_BackoffQuantum sweeps the ticket-lock backoff quantum
// around the educated value (paper policy: the max latency between
// participants) and reports throughput at 0.5x/1x/4x on Ivy, 40 threads.
func BenchmarkAblation_BackoffQuantum(b *testing.B) {
	top := benchTopo(b, "Ivy")
	p := sim.Ivy()
	threads := make([]int, 40)
	for t := range threads {
		threads[t] = t
	}
	educated := top.MaxLatency()
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, q := range map[string]int64{
			"half": educated / 2, "educated": educated, "quad": educated * 4,
		} {
			res, err := contend.Run(contend.Config{
				Platform: p, Threads: threads, Alg: locks.AlgTicket,
				Quantum: q, CSWork: 1000, PauseWork: 100, Horizon: 2_000_000,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[name] = res.Throughput
		}
	}
	b.ReportMetric(results["half"], "half_thpt")
	b.ReportMetric(results["educated"], "educated_thpt")
	b.ReportMetric(results["quad"], "quad_thpt")
}

// BenchmarkAblation_MergeTree compares the paper's greedy reduction tree,
// the exhaustive optimal tree, and naive adjacent pairing on the Opteron's
// asymmetric interconnect (cost in cycles for 128 MB per socket).
func BenchmarkAblation_MergeTree(b *testing.B) {
	top := benchTopo(b, "Opteron")
	sockets := []int{0, 3, 5, 6, 1, 2, 7, 4}
	var cGreedy, cOpt, cNaive int64
	for i := 0; i < b.N; i++ {
		greedy, err := reduce.Tree(top, sockets, 0)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := reduce.OptimalTree(top, sockets, 0, 1<<27)
		if err != nil {
			b.Fatal(err)
		}
		naive, err := reduce.NaiveTree(top, sockets, 0)
		if err != nil {
			b.Fatal(err)
		}
		cGreedy = reduce.Cost(top, greedy, 1<<27)
		cOpt = reduce.Cost(top, opt, 1<<27)
		cNaive = reduce.Cost(top, naive, 1<<27)
	}
	b.ReportMetric(float64(cGreedy), "greedy_cycles")
	b.ReportMetric(float64(cOpt), "optimal_cycles")
	b.ReportMetric(float64(cNaive), "naive_cycles")
}

// BenchmarkAblation_MergeKernel measures the real scalar vs bitonic 8-wide
// merge kernels on in-memory data (the mctop_sort_sse design choice).
func BenchmarkAblation_MergeKernel(b *testing.B) {
	n := 1 << 16
	a := make([]int32, n)
	c := make([]int32, n)
	for i := range a {
		a[i] = int32(2 * i)
		c[i] = int32(2*i + 1)
	}
	dst := make([]int32, 2*n)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msort.MergeScalarForBench(dst, a, c)
		}
	})
	b.Run("bitonic8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msort.MergeBitonicForBench(dst, a, c)
		}
	})
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
			if _, err := place.New(top, pol, place.Options{NThreads: 64}); err != nil {
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
