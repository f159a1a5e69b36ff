package mapreduce

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/place"
	"repro/internal/topo"
)

// Figure 10 / Figure 11 models: Metis with MCTOP-PLACE policies versus
// stock Metis. Stock Metis pins worker threads to hardware contexts
// sequentially and, by default, uses every context; the MCTOP version runs
// the paper's per-workload policy with the best thread count (always fewer
// or as many threads as the default, as the paper notes).

// WorkloadName identifies one of the four evaluated Metis workloads.
type WorkloadName string

// The four workloads of Figure 10.
const (
	WLKMeans     WorkloadName = "K-Means"
	WLMean       WorkloadName = "Mean"
	WLWordCount  WorkloadName = "Word Count"
	WLMatrixMult WorkloadName = "Matrix Mult"
)

// Workloads returns the Figure 10 workloads in paper order.
func Workloads() []WorkloadName {
	return []WorkloadName{WLKMeans, WLMean, WLWordCount, WLMatrixMult}
}

// PaperPolicy returns the placement policy the paper selected for each
// workload (Figure 10's captions); Word Count uses CON_CORE on SPARC.
func PaperPolicy(wl WorkloadName, platform string) place.Policy {
	switch wl {
	case WLKMeans:
		return place.ConCoreHWC
	case WLMean:
		return place.ConHWC
	case WLWordCount:
		if platform == "SPARC" {
			return place.ConCore
		}
		return place.RRCore
	case WLMatrixMult:
		return place.ConCore
	}
	return place.Sequential
}

// Profile builds the execution-model description of a workload, scaled by
// the machine's size so predicted times stay in the seconds range.
func Profile(wl WorkloadName, t *topo.Topology) exec.Workload {
	c := int64(t.NumCores())
	switch wl {
	case WLKMeans:
		// Iterative: point-assignment compute plus a large streaming pass
		// over the (locally allocated) points each round, with centroid
		// reductions. SMT helps the load-heavy assignment loop.
		return exec.Workload{
			Name: string(WLKMeans),
			Phases: []exec.Phase{{
				Name: "assign+reduce", WorkCycles: 3e8 * c, SMTFriendly: 0.68,
				Bytes: 1.5e8 * c, Data: exec.DataLocal, SyncOps: 30_000,
			}},
			Iterations: 8,
		}
	case WLMean:
		// Streaming aggregation of a matrix that lives on node 0:
		// bandwidth-bound on the data's home node.
		return exec.Workload{
			Name: string(WLMean),
			Phases: []exec.Phase{{
				Name: "scan", WorkCycles: 3e7 * c, SMTFriendly: 0.7,
				Bytes: 3e8 * c, Data: 0, SyncOps: 64,
			}},
		}
	case WLWordCount:
		// Heavy memory allocation and synchronization (the paper's own
		// analysis). On the x86 machines the intermediate traffic
		// dominates, so spreading for aggregate bandwidth pays; on the
		// 256-context SPARC the allocator and hash-bucket synchronization
		// is the bottleneck ("benefits from intra-socket locality") — the
		// measured behaviour Figure 10's footnote reports.
		syncOps := int64(30_000)
		bytes := int64(1.5e8) * c
		if t.NumHWContexts() >= 128 {
			syncOps = 600_000
			bytes = 2e7 * c
		}
		return exec.Workload{
			Name: string(WLWordCount),
			Phases: []exec.Phase{{
				Name: "map+reduce", WorkCycles: 3e7 * c, SMTFriendly: 0.5,
				Bytes: bytes, Data: exec.DataLocal, SyncOps: syncOps,
				SerialCycles: 4e8,
			}},
		}
	case WLMatrixMult:
		// Cache-blocked compute kernel: on 2-way Intel/AMD SMT the sibling
		// thrashes the blocked working set; the SPARC T4's barrel cores
		// are designed for many threads and still profit from them.
		smt := -0.15
		if t.SMTWays() >= 4 {
			smt = 0.3
		}
		return exec.Workload{
			Name: string(WLMatrixMult),
			Phases: []exec.Phase{{
				Name: "multiply", WorkCycles: 1.5e9 * c, SMTFriendly: smt,
				Bytes: 1e6 * c, Data: exec.DataLocal, SyncOps: 16,
			}},
		}
	}
	return exec.Workload{}
}

// Fig10Row is one bar pair of Figure 10.
type Fig10Row struct {
	Workload WorkloadName
	Platform string
	Policy   place.Policy
	// Threads chosen for the MCTOP version vs the stock default.
	Threads, DefaultThreads int
	// RelTime and RelEnergy are MCTOP/stock; lower is better. RelEnergy is
	// 0 on platforms without power measurements.
	RelTime   float64
	RelEnergy float64
}

// ModelFig10 predicts the four Figure 10 bars for one platform.
func ModelFig10(t *topo.Topology) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, wl := range Workloads() {
		row, err := modelWorkload(t, wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func modelWorkload(t *topo.Topology, wl WorkloadName) (Fig10Row, error) {
	prof := Profile(wl, t)
	policy := PaperPolicy(wl, t.Name())

	// Stock Metis: sequential pinning, all hardware contexts.
	base, err := estimateWith(t, place.Sequential, t.NumHWContexts(), prof)
	if err != nil {
		return Fig10Row{}, err
	}
	// MCTOP Metis: the paper's policy, best thread count from the sweep.
	best, err := bestThreads(t, policy, prof)
	if err != nil {
		return Fig10Row{}, err
	}

	row := Fig10Row{
		Workload: wl, Platform: t.Name(), Policy: policy,
		Threads: best.Threads, DefaultThreads: t.NumHWContexts(),
		RelTime: float64(best.Cycles) / float64(base.Cycles),
	}
	if base.EnergyJ > 0 {
		row.RelEnergy = best.EnergyJ / base.EnergyJ
	}
	return row, nil
}

// sameCtxSet reports whether two context lists (sorted in place) hold the
// same contexts.
func sameCtxSet(a, b []int) bool {
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// bestThreads is the fastest thread count of the sweep under one policy.
func bestThreads(t *topo.Topology, policy place.Policy, wl exec.Workload) (exec.Candidate, error) {
	return exec.Best(t, []place.Policy{policy}, exec.ThreadCandidates(t), wl, nil)
}

func estimateWith(t *topo.Topology, policy place.Policy, threads int, wl exec.Workload) (exec.Candidate, error) {
	return exec.Best(t, []place.Policy{policy}, []int{threads}, wl, nil)
}

// Fig11Row is one line of Figure 11: the energy-oriented POWER placement
// relative to the performance-oriented one on Ivy.
type Fig11Row struct {
	Workload WorkloadName
	// RelTime, RelEnergy: POWER placement / performance placement.
	RelTime   float64
	RelEnergy float64
	// EnergyEfficiency is 1/(RelTime*RelEnergy) — the paper's metric;
	// > 1 means the trade pays off.
	EnergyEfficiency float64
}

// ModelFig11 compares the POWER policy against the performance-oriented
// policy for K-Means and Mean (the paper's Figure 11, Ivy only — requires
// power measurements).
func ModelFig11(t *topo.Topology) ([]Fig11Row, error) {
	if !t.Power().Available() {
		return nil, fmt.Errorf("mapreduce: %s has no power measurements", t.Name())
	}
	var rows []Fig11Row
	for _, wl := range []WorkloadName{WLKMeans, WLMean} {
		prof := Profile(wl, t)
		policy := PaperPolicy(wl, t.Name())
		// Performance-oriented: best thread count under the paper policy.
		perf, err := bestThreads(t, policy, prof)
		if err != nil {
			return nil, err
		}
		// Energy-oriented: the POWER policy at the performance thread
		// count ("using fewer physical cores", Figure 11). When the two
		// policies happen to produce the very same contexts, step the
		// thread count down until the placements actually differ.
		var power exec.Candidate
		for n := perf.Threads; ; n = n * 3 / 4 {
			power, err = estimateWith(t, place.PowerPolicy, n, prof)
			if err != nil {
				return nil, err
			}
			if n == 1 || !sameCtxSet(perf.Placement.Contexts(), power.Placement.Contexts()) {
				break
			}
		}
		row := Fig11Row{
			Workload: wl,
			RelTime:  float64(power.Cycles) / float64(perf.Cycles),
		}
		if perf.EnergyJ > 0 {
			row.RelEnergy = power.EnergyJ / perf.EnergyJ
		}
		if row.RelTime > 0 && row.RelEnergy > 0 {
			row.EnergyEfficiency = 1 / (row.RelTime * row.RelEnergy)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
