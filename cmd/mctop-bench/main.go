// Command mctop-bench is the repo's paper-figure driver: `mctop-bench
// figures` regenerates every table and figure of the MCTOP paper's
// evaluation (Section 7) on the simulated platforms and prints them as
// markdown. It is the one driver of every model-derived paper number: its
// complete output is a pure function of the source tree, committed as
// testdata/figures.golden.md and compared byte for byte by
// TestFiguresGolden. Regenerate the golden by redirecting the command's
// output into that file.
//
// Usage:
//
//	mctop-bench figures                    # all figures
//	mctop-bench figures -only fig8         # one experiment: fig1to3, fig6,
//	                                       # sec35, fig7..fig12, ablations
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	mctop "repro"
	"repro/internal/contend"
	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/mapreduce"
	"repro/internal/mctopalg"
	"repro/internal/msort"
	"repro/internal/omp"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/topo"
)

var topoCache = map[string]*topo.Topology{}

func enriched(name string) *topo.Topology {
	if t, ok := topoCache[name]; ok {
		return t
	}
	t, err := mctop.Infer(context.Background(), name, 42)
	fail(err)
	topoCache[name] = t
	return t
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "figures":
		fs := flag.NewFlagSet("figures", flag.ExitOnError)
		only := fs.String("only", "", "run a single experiment")
		fs.Parse(os.Args[2:])
		fail(figures(os.Stdout, *only))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mctop-bench figures [-only <experiment>]")
	os.Exit(2)
}

// experiments lists the figure functions in output order.
var experiments = []struct {
	name string
	run  func(io.Writer)
}{
	{"fig1to3", figs1to3},
	{"fig6", fig6},
	{"sec35", sec35},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"ablations", ablations},
}

// figures writes every experiment (or the one named by only) to w.
func figures(w io.Writer, only string) error {
	ran := false
	for _, e := range experiments {
		if only == "" || only == e.name {
			e.run(w)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", only)
	}
	return nil
}

func header(w io.Writer, s string) { fmt.Fprintf(w, "\n## %s\n\n", s) }

// figs1to3: inferred topologies of the five platforms (Figures 1-3 show
// three of them as graphs).
func figs1to3(w io.Writer) {
	header(w, "Figures 1-3 — inferred topologies (all five platforms)")
	fmt.Fprintln(w, "| platform | ctx | cores | sockets | SMT | levels (median cycles) | local node of socket 0 | OS agrees? |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, name := range mctop.Platforms() {
		p, err := sim.ByName(name)
		fail(err)
		m, err := machine.NewSim(p, 42)
		fail(err)
		res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{Reps: 201})
		fail(err)
		t, err := plugins.Enrich(m, res.Topology, nil)
		fail(err)
		topoCache[name] = t
		var levels []string
		for _, c := range res.Clusters {
			levels = append(levels, fmt.Sprintf("%d", c.Median))
		}
		v := m.OSView()
		diffs := t.CompareOS(v.CoreOfCtx, v.SocketOfCtx, v.NodeOfSocket)
		agrees := "yes"
		if len(diffs) > 0 {
			agrees = "NO: " + diffs[0]
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %s | %d | %s |\n",
			name, t.NumHWContexts(), t.NumCores(), t.NumSockets(), t.SMTWays(),
			strings.Join(levels, " / "), t.Socket(0).Local.ID, agrees)
	}
}

// fig6: the four algorithm steps on Ivy.
func fig6(w io.Writer) {
	header(w, "Figure 6 — MCTOP-ALG steps on Ivy")
	_, res, err := mctop.InferDetailed(context.Background(), "Ivy", 42, mctop.WithReps(201))
	fail(err)
	fmt.Fprintf(w, "raw table: %dx%d, %d pairs measured, %d retries, rdtsc overhead %d cycles\n",
		len(res.RawTable), len(res.RawTable), res.Pairs, res.Retries, res.RdtscOverhead)
	fmt.Fprintf(w, "sample raw latencies: [0][20]=%d (SMT), [0][1]=%d (intra), [0][10]=%d (cross)\n",
		res.RawTable[0][20], res.RawTable[0][1], res.RawTable[0][10])
	fmt.Fprintln(w, "\n| cluster | min | median | max | paper |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	paper := []string{"28 (SMT)", "~112 (intra-socket)", "~308 (cross-socket)"}
	for i, c := range res.Clusters {
		p := ""
		if i < len(paper) {
			p = paper[i]
		}
		fmt.Fprintf(w, "| %d | %d | %d | %d | %s |\n", i+1, c.Min, c.Median, c.Max, p)
	}
	fmt.Fprintf(w, "\nSMT detected: %v (ways=%d); grouping levels: %d cores of %d, %d sockets of %d contexts\n",
		res.SMT, res.SMTWays,
		len(res.LevelGroups[0]), len(res.LevelGroups[0][0]),
		len(res.LevelGroups[1]), len(res.LevelGroups[1][0]))
}

// sec35: inference cost with the paper's full n=2000.
func sec35(w io.Writer) {
	header(w, "Section 3.5 — inference cost (n=2000 repetitions)")
	fmt.Fprintln(w, "| platform | simulated seconds | paper |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, row := range []struct{ name, paper string }{
		{"Ivy", "~3 s"},
		{"Westmere", "96 s"},
	} {
		p, err := sim.ByName(row.name)
		fail(err)
		m, err := machine.NewSim(p, 42)
		fail(err)
		res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{})
		fail(err)
		fmt.Fprintf(w, "| %s | %.1f | %s |\n", row.name, m.S.SimulatedSeconds(res.Cycles), row.paper)
	}
}

// fig7: the placement report.
func fig7(w io.Writer) {
	header(w, "Figure 7 — MCTOP-PLACE output (Ivy, CON_HWC, 30 threads)")
	t := enriched("Ivy")
	alloc, err := mctop.NewAlloc(t, mctop.ConHWC, mctop.WithThreads(30))
	fail(err)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, alloc.Report())
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w, "paper: 15 cores, 20/10 ctx per socket, BW 0.655/0.345, 66.7+43.4=110.1 W,")
	fmt.Fprintln(w, "111.9+88.7=200.6 W with DRAM, max latency 308 cycles, min bandwidth 24.28 GB/s")
}

// fig8: lock throughput with educated backoffs.
func fig8(w io.Writer) {
	header(w, "Figure 8 — educated lock backoffs (relative throughput, educated/baseline)")
	fmt.Fprintln(w, "| platform | algorithm | per-thread-count ratios | average |")
	fmt.Fprintln(w, "|---|---|---|---|")
	type agg struct {
		sum float64
		n   int
	}
	algAgg := map[locks.Algorithm]*agg{}
	for _, alg := range locks.Algorithms() {
		algAgg[alg] = &agg{}
	}
	for _, name := range mctop.Platforms() {
		p, err := sim.ByName(name)
		fail(err)
		t := enriched(name)
		quantum := t.MaxLatency()
		for _, alg := range locks.Algorithms() {
			var cells []string
			var sum float64
			var count int
			for n := 2; n <= p.NumContexts(); n *= 2 {
				threads := make([]int, n)
				for i := range threads {
					threads[i] = i
				}
				cfg := contend.Config{Platform: p, Threads: threads, Alg: alg,
					CSWork: 1000, PauseWork: 100, Horizon: 3_000_000}
				_, _, ratio, err := contend.RelativeThroughput(cfg, quantum)
				fail(err)
				cells = append(cells, fmt.Sprintf("%d:%.2f", n, ratio))
				sum += ratio
				count++
			}
			avg := sum / float64(count)
			algAgg[alg].sum += avg
			algAgg[alg].n++
			fmt.Fprintf(w, "| %s | %s | %s | %.3f |\n", name, alg, strings.Join(cells, " "), avg)
		}
	}
	fmt.Fprintln(w)
	for _, alg := range locks.Algorithms() {
		a := algAgg[alg]
		fmt.Fprintf(w, "overall %s average: %.3f (paper: TAS +12%%, TTAS +11%%, TICKET +39%%)\n",
			alg, a.sum/float64(a.n))
	}
}

// fig9: the sort breakdown.
func fig9(w io.Writer) {
	header(w, "Figure 9 — sorting 1 GB of integers (modeled seconds, seq + merge)")
	fmt.Fprintln(w, "| platform | threads | gnu | mctop | mctop_sse | mctop vs gnu |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var relSum float64
	var relN int
	for _, name := range mctop.Platforms() {
		t := enriched(name)
		for _, threads := range []int{16, t.NumHWContexts()} {
			rows := map[msort.Variant]msort.Fig9Row{}
			for _, v := range []msort.Variant{msort.VariantGNU, msort.VariantMCTOP, msort.VariantMCTOPSSE} {
				r, err := msort.ModelFig9(t, v, threads)
				fail(err)
				rows[v] = r
			}
			rel := rows[msort.VariantMCTOP].TotalSec() / rows[msort.VariantGNU].TotalSec()
			relSum += rel
			relN++
			fmt.Fprintf(w, "| %s | %d | %.2f (%.2f+%.2f) | %.2f (%.2f+%.2f) | %.2f | %.2f |\n",
				name, threads,
				rows[msort.VariantGNU].TotalSec(), rows[msort.VariantGNU].SeqSec, rows[msort.VariantGNU].MergeSec,
				rows[msort.VariantMCTOP].TotalSec(), rows[msort.VariantMCTOP].SeqSec, rows[msort.VariantMCTOP].MergeSec,
				rows[msort.VariantMCTOPSSE].TotalSec(), rel)
		}
	}
	fmt.Fprintf(w, "\naverage mctop/gnu = %.3f (paper: mctop_sort 17%% faster on average)\n", relSum/float64(relN))
}

// fig10: Metis with MCTOP-PLACE.
func fig10(w io.Writer) {
	header(w, "Figure 10 — Metis with MCTOP placement (relative time/energy vs stock Metis)")
	fmt.Fprintln(w, "| workload | platform | policy | threads (vs default) | rel time | rel energy |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var sum float64
	var n int
	var eSum float64
	var eN int
	for _, name := range mctop.Platforms() {
		t := enriched(name)
		rows, err := mapreduce.ModelFig10(t)
		fail(err)
		for _, r := range rows {
			energy := "n/a"
			if r.RelEnergy > 0 {
				energy = fmt.Sprintf("%.3f", r.RelEnergy)
				eSum += r.RelEnergy
				eN++
			}
			fmt.Fprintf(w, "| %s | %s | %v | %d (%d) | %.3f | %s |\n",
				r.Workload, r.Platform, r.Policy, r.Threads, r.DefaultThreads, r.RelTime, energy)
			sum += r.RelTime
			n++
		}
	}
	fmt.Fprintf(w, "\naverage rel time = %.3f (paper: 0.83); average rel energy on Intel = %.3f (paper: 0.86)\n",
		sum/float64(n), eSum/float64(eN))
}

// fig11: energy-oriented placement.
func fig11(w io.Writer) {
	header(w, "Figure 11 — energy-oriented placement on Ivy (POWER vs performance)")
	t := enriched("Ivy")
	rows, err := mapreduce.ModelFig11(t)
	fail(err)
	fmt.Fprintln(w, "| workload | rel time | rel energy | energy efficiency | paper (time/energy/eff) |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	paper := map[mapreduce.WorkloadName]string{
		mapreduce.WLKMeans: "1.186 / 0.774 / 1.089",
		mapreduce.WLMean:   "1.045 / 0.915 / 1.046",
	}
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %s |\n",
			r.Workload, r.RelTime, r.RelEnergy, r.EnergyEfficiency, paper[r.Workload])
	}
}

// fig12: MCTOP MP vs OpenMP.
func fig12(w io.Writer) {
	header(w, "Figure 12 — MCTOP MP vs default OpenMP (graph workloads, x86 platforms)")
	fmt.Fprintln(w, "| workload | platform | chosen policy | threads | rel time |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	var sum float64
	var n int
	for _, name := range []string{"Ivy", "Opteron", "Haswell", "Westmere"} {
		t := enriched(name)
		rows, err := omp.ModelFig12(t)
		fail(err)
		for _, r := range rows {
			fmt.Fprintf(w, "| %s | %s | %v | %d | %.3f |\n", r.Kernel, r.Platform, r.Chosen, r.Threads, r.RelTime)
			sum += r.RelTime
			n++
		}
	}
	fmt.Fprintf(w, "\naverage rel time = %.3f (paper: ~0.78, i.e. 22%% faster)\n", sum/float64(n))
	ivy := enriched("Ivy")
	fixed, err := omp.BestFixed(ivy)
	fail(err)
	adaptive, err := omp.AdaptiveCombination(ivy)
	fail(err)
	fmt.Fprintf(w, "Combination on Ivy: best fixed placement %.3g cycles vs adaptive re-binding %.3g (%.1f%% better)\n",
		float64(fixed), float64(adaptive), 100*(1-float64(adaptive)/float64(fixed)))
}

// ablations: the design choices (merge tree, backoff quantum, placement
// policies).
func ablations(w io.Writer) {
	header(w, "Ablations")
	// Merge tree.
	t := enriched("Opteron")
	sockets := []int{0, 3, 5, 6, 1, 2, 7, 4}
	greedy, err := reduce.Tree(t, sockets, 0)
	fail(err)
	opt, err := reduce.OptimalTree(t, sockets, 0, 1<<27)
	fail(err)
	naive, err := reduce.NaiveTree(t, sockets, 0)
	fail(err)
	fmt.Fprintf(w, "merge tree on Opteron (128 MB/socket): naive %.3g cycles, greedy (paper) %.3g, optimal %.3g\n",
		float64(reduce.Cost(t, naive, 1<<27)), float64(reduce.Cost(t, greedy, 1<<27)),
		float64(reduce.Cost(t, opt, 1<<27)))

	// Backoff quantum.
	ivy := enriched("Ivy")
	p, err := sim.ByName("Ivy")
	fail(err)
	threads := make([]int, 40)
	for i := range threads {
		threads[i] = i
	}
	educated := ivy.MaxLatency()
	fmt.Fprintf(w, "ticket backoff quantum sweep (Ivy, 40 threads, acquisitions/Mcycle):")
	for _, mul := range []struct {
		label string
		q     int64
	}{{"0", 0}, {"x0.5", educated / 2}, {"x1 (educated)", educated}, {"x2", educated * 2}, {"x4", educated * 4}} {
		res, err := contend.Run(contend.Config{Platform: p, Threads: threads,
			Alg: locks.AlgTicket, Quantum: mul.q, CSWork: 1000, PauseWork: 100, Horizon: 3_000_000})
		fail(err)
		fmt.Fprintf(w, "  %s=%.1f", mul.label, res.Throughput)
	}
	fmt.Fprintln(w)

	// Placement policies overview on one big machine.
	wes := enriched("Westmere")
	fmt.Fprintln(w, "\nplacement policies on Westmere (64 threads): cores used / sockets used / max latency")
	for _, pol := range place.Policies() {
		pl, err := place.NewFrom(wes, pol, place.Options{NThreads: 64})
		if err != nil {
			fmt.Fprintf(w, "  %-32v unavailable (%v)\n", pol, err)
			continue
		}
		fmt.Fprintf(w, "  %-32v %3d cores, %d sockets, %4d cycles\n",
			pol, pl.NCores(), len(pl.SocketsUsed()), pl.MaxLatency())
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctop-bench:", err)
		os.Exit(1)
	}
}
