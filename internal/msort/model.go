package msort

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/exec"
	"repro/internal/place"
	"repro/internal/reduce"
	"repro/internal/topo"
)

// Figure 9 model: sorting 1 GB of int32 on each platform, 16 threads and
// full machine, broken into the sequential part and the merging part.
//
// Merging two sorted runs with comparisons is latency/branch bound — "the
// aggressive out-of-order cores are not able to predict the direction of
// the merge branch" — so the per-element merge cost dominates until enough
// threads make memory bandwidth the limit. The model captures: chunked
// quicksort cost, per-round merge cost (branchy scalar vs branch-free
// bitonic kernel with the 3:1 SMT split), per-socket memory streaming with
// node contention, the cross-socket reduction tree, and the baseline's
// unpinned-thread penalty (the OS placement variance the paper observes for
// gnu_parallel::sort).

// Variant selects the Figure 9 algorithm.
type Variant int

const (
	// VariantGNU is the topology-agnostic gnu_parallel::sort baseline.
	VariantGNU Variant = iota
	// VariantMCTOP is mctop_sort.
	VariantMCTOP
	// VariantMCTOPSSE is mctop_sort_sse (bitonic kernel).
	VariantMCTOPSSE
)

func (v Variant) String() string {
	switch v {
	case VariantGNU:
		return "gnu"
	case VariantMCTOP:
		return "mctop"
	case VariantMCTOPSSE:
		return "mctop_sse"
	}
	return "Variant(?)"
}

// Model constants (cycles per element, calibrated to the paper's absolute
// times on Ivy and scaled everywhere else by the machine's own numbers).
const (
	modelElems     = 268_435_456 // 1 GB of int32
	kSort          = 9.0         // quicksort cycles per element per log2 level
	kMergeScalar   = 24.0        // branchy two-finger merge, per element per round
	kMergeBitonic  = 9.0         // branch-free 8-wide kernel with 3:1 SMT split
	smtSort        = 0.45        // SMT friendliness of the quicksort phase
	smtMerge       = 0.35        // merge is pipeline-hungry
	unpinnedComp   = 0.82        // OS-scheduled threads lose compute to migrations
	unpinnedMem    = 0.70        // and locality
	unpinnedComp16 = 0.74        // fewer threads -> more room for bad placements
	unpinnedMem16  = 0.60
)

// Fig9Row is one bar group of Figure 9.
type Fig9Row struct {
	Platform string
	Variant  Variant
	Threads  int
	SeqSec   float64
	MergeSec float64
}

// TotalSec is the bar height.
func (r Fig9Row) TotalSec() float64 { return r.SeqSec + r.MergeSec }

// ModelFig9 predicts one Figure 9 bar.
func ModelFig9(t *topo.Topology, v Variant, threads int) (Fig9Row, error) {
	if threads < 1 || threads > t.NumHWContexts() {
		return Fig9Row{}, fmt.Errorf("msort: %d threads out of range", threads)
	}
	freq := t.ModelFreqGHz()
	row := Fig9Row{Platform: t.Name(), Variant: v, Threads: threads}

	// Placement: the MCTOP variants spread round-robin (RR policy, to use
	// every socket's LLC and memory channels); the baseline is whatever the
	// OS does — modeled as sequential numbering plus the unpinned penalty.
	policy := place.RRCore
	compPenalty, memPenalty := 1.0, 1.0
	if v == VariantGNU {
		policy = place.Sequential
		if threads <= 16 {
			compPenalty, memPenalty = unpinnedComp16, unpinnedMem16
		} else {
			compPenalty, memPenalty = unpinnedComp, unpinnedMem
		}
	}
	pl, err := place.NewFrom(t, policy, place.Options{NThreads: threads})
	if err != nil {
		return Fig9Row{}, err
	}
	o := pl.Occupancy()
	nThreads := float64(o.N)

	eff := exec.EffectiveCores(o, smtSort) * compPenalty

	// Sequential part: quicksort of per-thread chunks.
	chunk := float64(modelElems) / nThreads
	sortCycles := float64(modelElems) * kSort * math.Log2(chunk) / eff
	row.SeqSec = sortCycles / (freq * 1e9)

	// Merging part.
	kMerge := kMergeScalar
	if v == VariantMCTOPSSE {
		kMerge = kMergeBitonic
	}
	effM := exec.EffectiveCores(o, smtMerge) * compPenalty
	bytes := float64(modelElems) * 4

	var mergeSec float64
	if v == VariantGNU {
		// log2(chunks) pairwise rounds, all data rooted at node 0, threads
		// wherever the OS put them.
		rounds := math.Ceil(math.Log2(nThreads))
		perRoundComp := float64(modelElems) * kMerge / effM
		// Streaming: reads spread over the machine (penalized), writes
		// contend on node 0.
		var agg float64
		for _, s := range t.Sockets() {
			agg += exec.MemBW(s, s.Local.ID)
		}
		agg *= memPenalty
		s0 := t.Socket(0)
		node0 := exec.MemBW(s0, s0.Local.ID)
		perRoundMemSec := bytes/1e9/agg + bytes/1e9/node0
		perRoundSec := math.Max(perRoundComp/(freq*1e9), perRoundMemSec)
		mergeSec = rounds * perRoundSec
	} else {
		// Socket-local rounds: each socket merges its chunks locally. The
		// sockets are walked in id order: the list reaches reduce.Tree's
		// tie-breaking, so it must not depend on first use or iteration
		// order.
		var sockets []int
		var localSec float64
		for s, n := range o.CtxPerSocket {
			if n == 0 {
				continue
			}
			sockets = append(sockets, s)
			sock := t.Socket(s)
			chunks := float64(n)
			rounds := math.Ceil(math.Log2(chunks))
			if rounds < 1 {
				rounds = 1
			}
			b := bytes * chunks / nThreads
			comp := b / 4 * kMerge / exec.EffectiveCores(t.Occupancy(o.On(s)), smtMerge)
			mem := 2 * b / 1e9 / exec.MemBW(sock, sock.Local.ID)
			sec := rounds * math.Max(comp/(freq*1e9), mem)
			if sec > localSec {
				localSec = sec // sockets merge in parallel
			}
		}
		// Cross-socket reduction tree rooted at socket 0.
		dest := 0
		if !slices.Contains(sockets, dest) {
			sockets = append(sockets, dest)
		}
		treeSec := 0.0
		if len(sockets) > 1 {
			plan, perr := reduce.Tree(t, sockets, dest)
			if perr != nil {
				return Fig9Row{}, perr
			}
			treeCycles := reduce.Cost(t, plan, int64(bytes)/int64(len(sockets)))
			// The tree streams data; merging it costs compute too.
			treeComp := bytes / 4 * kMerge * math.Log2(float64(len(sockets))) / effM
			treeSec = math.Max(float64(treeCycles), treeComp) / (freq * 1e9)
		}
		mergeSec = localSec + treeSec
	}
	row.MergeSec = mergeSec
	return row, nil
}
