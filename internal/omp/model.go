package omp

import (
	"repro/internal/exec"
	"repro/internal/place"
	"repro/internal/topo"
)

// Figure 12 model: MCTOP MP with model-driven automatic policy selection
// versus default OpenMP (libgomp: unpinned threads, one thread per
// context) on the Green-Marl graph workloads. The paper evaluates the four
// x86 platforms (Green-Marl does not support SPARC) plus the Combination
// workload, where OpenMP must keep one placement across two kernels that
// want different ones while MCTOP MP re-binds between regions.

// Kernel names one Figure 12 workload.
type Kernel string

// The Figure 12 workloads in paper order.
const (
	KCommunities  Kernel = "Communities"
	KHopDistance  Kernel = "Hop Distance"
	KPageRank     Kernel = "PageRank"
	KPotentialFr  Kernel = "Potential Friends"
	KRandDegrSamp Kernel = "Rand Degr. Samp."
	KCombination  Kernel = "Combination"
)

// Kernels returns the six workloads.
func Kernels() []Kernel {
	return []Kernel{KCommunities, KHopDistance, KPageRank, KPotentialFr, KRandDegrSamp, KCombination}
}

// KernelProfile models one kernel's execution on a 100M-node-class graph,
// scaled by machine size.
func KernelProfile(k Kernel, t *topo.Topology) exec.Workload {
	c := int64(t.NumCores())
	switch k {
	case KCommunities:
		// Label propagation: neighbour scans with per-round convergence
		// checks; locality-sensitive.
		return exec.Workload{Name: string(k), Phases: []exec.Phase{{
			Name: "propagate", WorkCycles: 2.5e8 * c, SMTFriendly: 0.35,
			Bytes: 3e7 * c, Data: exec.DataLocal, SyncOps: 120_000,
		}}, Iterations: 4}
	case KHopDistance:
		// Level-synchronous BFS: little work, a barrier per level, very
		// latency-sensitive — compact placements win decisively.
		return exec.Workload{Name: string(k), Phases: []exec.Phase{{
			Name: "bfs", WorkCycles: 2e7 * c, SMTFriendly: 0.4,
			Bytes: 1e7 * c, Data: exec.DataLocal, SyncOps: 1_200_000,
		}}}
	case KPageRank:
		// Streaming over the whole edge array every iteration: bandwidth
		// everywhere (the graph is interleaved across nodes), plus enough
		// rank arithmetic that SMT contexts help.
		return exec.Workload{Name: string(k), Phases: []exec.Phase{{
			Name: "rank", WorkCycles: 2e9 * c, SMTFriendly: 0.6,
			Bytes: 4.5e8 * c, Data: exec.DataStriped, SyncOps: 2_000,
		}}, Iterations: 1}
	case KPotentialFr:
		// Two-hop scans: compute-dense and cache-hungry — an SMT sibling
		// thrashes the shared L1/L2, so unique cores win.
		return exec.Workload{Name: string(k), Phases: []exec.Phase{{
			Name: "fof", WorkCycles: 9e8 * c, SMTFriendly: -0.1,
			Bytes: 2e7 * c, Data: exec.DataLocal, SyncOps: 60_000,
		}}}
	case KRandDegrSamp:
		// Random edge-endpoint probes: latency-bound pointer chasing with
		// frequent short regions.
		return exec.Workload{Name: string(k), Phases: []exec.Phase{{
			Name: "sample", WorkCycles: 1.5e8 * c, SMTFriendly: 0.55,
			Bytes: 2e7 * c, Data: exec.DataLocal, SyncOps: 250_000,
		}}}
	}
	return exec.Workload{}
}

// CandidatePolicies is the set the auto-selector tries. Compact policies
// come first: exact ties (identical context sets) keep the earlier
// candidate, and the bandwidth tie-break below still lets spread policies
// win memory-dominated regions.
func CandidatePolicies() []place.Policy {
	return []place.Policy{
		place.ConCoreHWC, place.ConCore, place.ConHWC,
		place.BalanceCore, place.BalanceHWC,
		place.RRCore,
	}
}

// Fig12Row is one bar of Figure 12.
type Fig12Row struct {
	Kernel   Kernel
	Platform string
	// Chosen is the policy the auto-selection picked.
	Chosen  place.Policy
	Threads int
	// RelTime is MCTOP MP / default OpenMP, including the pre-processing
	// overhead of the policy sampling; lower is better.
	RelTime float64
}

// preprocessOverhead is the sampling cost of automatic policy selection
// (the paper observes up to 9% loss from it on some workloads).
const preprocessOverhead = 0.05

// selectPolicy runs the model-driven policy selection for one kernel.
// Near-ties (several policies produce the same context set) are broken the
// way the paper reasons about placements: bandwidth-dominated regions
// prefer the placement with more aggregate local bandwidth, others the one
// with the lowest communication latency.
func selectPolicy(t *topo.Topology, wl exec.Workload) (exec.Candidate, error) {
	return exec.Best(t, CandidatePolicies(), exec.ThreadCandidates(t), wl,
		func(c, best *exec.Candidate) bool {
			switch {
			case float64(c.Cycles) < 0.995*float64(best.Cycles):
				return true
			case float64(c.Cycles) > 1.005*float64(best.Cycles):
				return false
			case c.MemIntensity() >= 0.5:
				return c.Placement.MinBandwidth() > best.Placement.MinBandwidth()
			}
			return c.Placement.MaxLatency() < best.Placement.MaxLatency()
		})
}

// unpinnedPenalty is the efficiency unpinned teams retain: libgomp does
// not bind threads, so the OS migrates them across cores and sockets,
// costing locality and warm caches (the same effect the paper observes for
// gnu_parallel::sort's placement variance).
const unpinnedPenalty = 0.85

// defaultOpenMP models libgomp's default: one thread per context, no
// pinning — a sequential fill degraded by the migration penalty.
func defaultOpenMP(t *topo.Topology, wl exec.Workload) (exec.Report, error) {
	c, err := exec.Best(t, []place.Policy{place.Sequential}, []int{0}, wl, nil)
	if err != nil {
		return exec.Report{}, err
	}
	r := c.Report
	r.Cycles = int64(float64(r.Cycles) / unpinnedPenalty)
	r.Seconds /= unpinnedPenalty
	return r, nil
}

// ModelFig12 predicts all Figure 12 bars for one platform.
func ModelFig12(t *topo.Topology) ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, k := range Kernels() {
		if k == KCombination {
			row, err := modelCombination(t)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			continue
		}
		wl := KernelProfile(k, t)
		best, err := selectPolicy(t, wl)
		if err != nil {
			return nil, err
		}
		base, err := defaultOpenMP(t, wl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig12Row{
			Kernel: k, Platform: t.Name(), Chosen: best.Policy, Threads: best.Threads,
			RelTime: float64(best.Cycles) * (1 + preprocessOverhead) / float64(base.Cycles),
		})
	}
	return rows, nil
}

// modelCombination runs PageRank and Potential Friends back to back.
// MCTOP MP re-binds between the two regions; OpenMP cannot, so it keeps
// its default placement for both (and even a hand-tuned fixed placement
// must sacrifice one of the kernels — see BestFixed).
func modelCombination(t *topo.Topology) (Fig12Row, error) {
	pr := KernelProfile(KPageRank, t)
	pf := KernelProfile(KPotentialFr, t)

	// MCTOP MP: per-kernel selection, overhead applied to both.
	bestPR, bestPF, err := selectBoth(t)
	if err != nil {
		return Fig12Row{}, err
	}
	mctop := float64(bestPR.Cycles+bestPF.Cycles) * (1 + preprocessOverhead)

	basePR, err := defaultOpenMP(t, pr)
	if err != nil {
		return Fig12Row{}, err
	}
	basePF, err := defaultOpenMP(t, pf)
	if err != nil {
		return Fig12Row{}, err
	}
	base := float64(basePR.Cycles + basePF.Cycles)

	return Fig12Row{
		Kernel: KCombination, Platform: t.Name(), Chosen: bestPF.Policy, Threads: bestPF.Threads,
		RelTime: mctop / base,
	}, nil
}

// BestFixed returns the total cycles of the best SINGLE placement covering
// both Combination kernels — what a hand-tuned but non-adaptive OpenMP
// could at most achieve. Used by tests to show that switching policies
// between regions (MCTOP MP) beats any fixed choice.
func BestFixed(t *topo.Topology) (int64, error) {
	// One placement for both kernels is one workload made of both kernels'
	// phases (each runs a single iteration).
	both := exec.Workload{Name: string(KCombination), Phases: append(
		KernelProfile(KPageRank, t).Phases, KernelProfile(KPotentialFr, t).Phases...)}
	best, err := exec.Best(t, CandidatePolicies(), exec.ThreadCandidates(t), both, nil)
	return best.Cycles, err
}

// AdaptiveCombination returns MCTOP MP's total cycles for the Combination
// workload without the sampling overhead (for the fixed-vs-adaptive
// comparison).
func AdaptiveCombination(t *topo.Topology) (int64, error) {
	pr, pf, err := selectBoth(t)
	return pr.Cycles + pf.Cycles, err
}

// selectBoth runs the policy selection for each Combination kernel.
func selectBoth(t *topo.Topology) (pr, pf exec.Candidate, err error) {
	if pr, err = selectPolicy(t, KernelProfile(KPageRank, t)); err == nil {
		pf, err = selectPolicy(t, KernelProfile(KPotentialFr, t))
	}
	return pr, pf, err
}
