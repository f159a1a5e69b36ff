// Package msort implements the parallel sorting algorithms of Section 7.2
// of the MCTOP paper.
//
// ParallelSort is the topology-agnostic baseline (the structure of
// gnu_parallel::sort): split the array into per-thread chunks, quicksort
// them in parallel, then merge pairwise in parallel rounds. MCTOPSort takes
// the same first step but performs NUMA-aware merging: chunks are grouped
// by socket (following an MCTOP-PLACE placement), sockets first merge
// locally with all their threads cooperating, and the cross-socket rounds
// follow the bandwidth-maximizing reduction tree of internal/reduce, ending
// at the socket that must hold the result. MCTOPSortSSE swaps the scalar
// merge kernel for the branch-free 8-wide bitonic network (the paper's SSE
// variant) and gives the kernel-running contexts three times more data, as
// the paper does for the SIMD threads.
//
// On the host these run as real goroutines (the NUMA effects themselves are
// reproduced deterministically by the Figure 9 model in model.go).
package msort

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/place"
	"repro/internal/reduce"
	"repro/internal/topo"
)

// quicksort sorts data in place: median-of-three pivots, insertion sort
// below 24 elements — the "standard sequential quicksort" of the paper's
// first phase.
func quicksort(a []int32) {
	for len(a) > 24 {
		m := medianOfThree(a)
		a[0], a[m] = a[m], a[0]
		pivot := a[0]
		i, j := 1, len(a)-1
		for {
			for i <= j && a[i] < pivot {
				i++
			}
			for i <= j && a[j] > pivot {
				j--
			}
			if i > j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		a[0], a[j] = a[j], a[0]
		// Recurse on the smaller half, loop on the larger.
		if j < len(a)-j {
			quicksort(a[:j])
			a = a[j+1:]
		} else {
			quicksort(a[j+1:])
			a = a[:j]
		}
	}
	insertionSort(a)
}

func medianOfThree(a []int32) int {
	n := len(a)
	i, j, k := 0, n/2, n-1
	if a[i] > a[j] {
		i, j = j, i
	}
	if a[j] > a[k] {
		j = k
		if a[i] > a[j] {
			j = i
		}
	}
	return j
}

func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// rankSplit finds the merge-path split: indices (i, j) with i+j = k such
// that merging a[:i] and b[:j] yields the k smallest elements.
func rankSplit(a, b []int32, k int) (int, int) {
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		i := (lo + hi) / 2
		j := k - i
		if j > 0 && i < len(a) && b[j-1] > a[i] {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo, k - lo
}

// mergeKernel is the sequential merge used inside parallel partitions.
type mergeKernel func(dst, a, b []int32)

// parallelMerge merges sorted a and b into dst using p workers with the
// given per-worker weights (nil = equal). Weighted partitions implement the
// paper's 3:1 data split between SIMD and scalar threads.
func parallelMerge(dst, a, b []int32, kernels []mergeKernel, weights []float64) {
	p := len(kernels)
	if p <= 1 || len(dst) < 4096 {
		k := mergeScalar
		if p >= 1 && kernels[0] != nil {
			k = kernels[0]
		}
		k(dst, a, b)
		return
	}
	total := len(dst)
	// Cumulative weighted boundaries.
	var wsum float64
	for i := 0; i < p; i++ {
		if weights == nil {
			wsum++
		} else {
			wsum += weights[i]
		}
	}
	bounds := make([]int, p+1)
	var acc float64
	for i := 0; i < p; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		acc += w
		bounds[i+1] = int(float64(total) * acc / wsum)
	}
	bounds[p] = total

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		ai, aj := rankSplit(a, b, lo)
		bi, bj := rankSplit(a, b, hi)
		wg.Add(1)
		go func(w int, dst, pa, pb []int32) {
			defer wg.Done()
			kernels[w](dst, pa, pb)
		}(w, dst[lo:hi], a[ai:bi], b[aj:bj])
	}
	wg.Wait()
}

func scalarKernels(p int) []mergeKernel {
	ks := make([]mergeKernel, p)
	for i := range ks {
		ks[i] = mergeScalar
	}
	return ks
}

// ParallelSort is the topology-agnostic baseline: chunked parallel
// quicksort followed by pairwise parallel merge rounds.
func ParallelSort(data []int32, threads int) {
	if threads < 1 {
		threads = 1
	}
	if len(data) < 2 {
		return
	}
	chunks := splitChunks(data, threads)
	sortChunks(chunks)
	mergeRounds(data, chunks, threads, scalarKernels(threads), nil)
}

func splitChunks(data []int32, n int) [][]int32 {
	if n > len(data) {
		n = len(data)
	}
	chunks := make([][]int32, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(data) / n
		hi := (i + 1) * len(data) / n
		if lo < hi {
			chunks = append(chunks, data[lo:hi])
		}
	}
	return chunks
}

func sortChunks(chunks [][]int32) {
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c []int32) {
			defer wg.Done()
			quicksort(c)
		}(c)
	}
	wg.Wait()
}

// mergeRounds repeatedly merges adjacent sorted runs until one remains,
// alternating between data and a scratch buffer.
func mergeRounds(data []int32, runs [][]int32, threads int, kernels []mergeKernel, weights []float64) {
	if len(runs) <= 1 {
		return
	}
	scratch := make([]int32, len(data))
	src := runs
	dstBuf := scratch
	srcIsData := true
	for len(src) > 1 {
		var next [][]int32
		off := 0
		for i := 0; i < len(src); i += 2 {
			if i+1 == len(src) {
				out := dstBuf[off : off+len(src[i])]
				copy(out, src[i])
				next = append(next, out)
				off += len(src[i])
				continue
			}
			n := len(src[i]) + len(src[i+1])
			out := dstBuf[off : off+n]
			parallelMerge(out, src[i], src[i+1], kernels, weights)
			next = append(next, out)
			off += n
		}
		src = next
		if srcIsData {
			dstBuf = data
		} else {
			dstBuf = scratch
		}
		srcIsData = !srcIsData
	}
	if !srcIsData {
		// The single run lives in scratch; move it home.
		copy(data, src[0])
	}
}

// MCTOPSort is the paper's mctop_sort: the same chunked quicksort first
// phase, but with threads spread across sockets (RR placement, to exploit
// every socket's LLC and memory bandwidth) and merging organized as
// socket-local merges followed by the cross-socket reduction tree, rooted
// at destSocket.
func MCTOPSort(data []int32, t *topo.Topology, threads, destSocket int) error {
	return mctopSort(data, t, threads, destSocket, false)
}

// MCTOPSortSSE is MCTOPSort with the bitonic 8-wide merge kernel on the
// first hardware context of each core and scalar merging on the rest; the
// kernel threads receive three times more data (Section 7.2).
func MCTOPSortSSE(data []int32, t *topo.Topology, threads, destSocket int) error {
	return mctopSort(data, t, threads, destSocket, true)
}

func mctopSort(data []int32, t *topo.Topology, threads, destSocket int, sse bool) error {
	if threads < 1 {
		threads = 1
	}
	if t.Socket(destSocket) == nil {
		destSocket = 0
	}
	pl, err := place.New(t, place.RRCore, place.Options{NThreads: threads})
	if err != nil {
		return err
	}
	ctxs := pl.Contexts()

	// Thread slots grouped by socket, sockets in first-use order.
	occ := pl.Occupancy()
	socketOrder := occ.Sockets
	if !slices.Contains(socketOrder, destSocket) {
		socketOrder = append(slices.Clone(socketOrder), destSocket)
	}

	// Phase 1: per-thread chunks, quicksorted in parallel (each socket gets
	// a share proportional to its thread count).
	chunks := splitChunks(data, len(ctxs))
	sortChunks(chunks)

	// Assign chunks to sockets in placement order.
	runsOf := make([][][]int32, t.NumSockets())
	for i, c := range ctxs {
		if i >= len(chunks) {
			break
		}
		s := t.Context(c).Socket.ID
		runsOf[s] = append(runsOf[s], chunks[i])
	}

	// Phase 2: socket-local merges — all threads of the socket cooperate on
	// each pairwise merge (parallelMerge partitions it).
	scratch := make([]int32, len(data))
	offsets := make([]int, t.NumSockets())
	off := 0
	for _, s := range socketOrder {
		offsets[s] = off
		for _, r := range runsOf[s] {
			off += len(r)
		}
	}
	// merged has one element per socket, and a socket is in at most one
	// step of a round: goroutines never share an element.
	var wg sync.WaitGroup
	merged := make([][]int32, t.NumSockets())
	for _, s := range socketOrder {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			merged[s] = localMerge(scratch[offsets[s]:], runsOf[s], kernelsFor(t, occ.On(s), sse))
		}(s)
	}
	wg.Wait()

	// Phase 3: cross-socket reduction tree rooted at the destination.
	plan, err := reduce.Tree(t, socketOrder, destSocket)
	if err != nil {
		return err
	}
	for _, round := range plan.Rounds {
		for _, st := range round {
			wg.Add(1)
			go func(st reduce.Step) {
				defer wg.Done()
				a, b := merged[st.To], merged[st.From]
				if len(b) == 0 {
					return
				}
				merged[st.From] = nil
				if len(a) == 0 {
					merged[st.To] = b
					return
				}
				// The pair's threads cooperate on the merge.
				workers := append(slices.Clone(occ.On(st.To)), occ.On(st.From)...)
				merged[st.To] = make([]int32, len(a)+len(b))
				parallelMerge(merged[st.To], a, b, kernelsFor(t, workers, sse), weightsFor(t, workers, sse))
			}(st)
		}
		wg.Wait()
	}
	copy(data, merged[destSocket])
	return nil
}

// localMerge merges a socket's runs pairwise into dst space and returns the
// final run.
func localMerge(dst []int32, runs [][]int32, kernels []mergeKernel) []int32 {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		out := dst[:len(runs[0])]
		copy(out, runs[0])
		return out
	}
	var n int
	for _, r := range runs {
		n += len(r)
	}
	cur := runs
	spare := make([]int32, n)
	target := dst[:n]
	for len(cur) > 1 {
		var next [][]int32
		off := 0
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				out := target[off : off+len(cur[i])]
				copy(out, cur[i])
				next = append(next, out)
				off += len(cur[i])
				continue
			}
			m := len(cur[i]) + len(cur[i+1])
			out := target[off : off+m]
			parallelMerge(out, cur[i], cur[i+1], kernels, nil)
			next = append(next, out)
			off += m
		}
		cur = next
		target, spare = spare, target
	}
	if &cur[0][0] != &dst[0] {
		copy(dst[:n], cur[0])
		return dst[:n]
	}
	return cur[0]
}

// kernelsFor builds one merge kernel per worker slot: with sse, the first
// hardware context of each core runs the bitonic kernel, the rest merge
// scalar (the paper's SMT division of labor).
func kernelsFor(t *topo.Topology, ctxs []int, sse bool) []mergeKernel {
	if len(ctxs) == 0 {
		return scalarKernels(1)
	}
	ks := make([]mergeKernel, len(ctxs))
	for i, c := range ctxs {
		if sse && isFirstOfCore(t, c) {
			ks[i] = mergeBitonic
		} else {
			ks[i] = mergeScalar
		}
	}
	return ks
}

// weightsFor gives bitonic-kernel workers 3x the data of scalar workers.
func weightsFor(t *topo.Topology, ctxs []int, sse bool) []float64 {
	if !sse || len(ctxs) == 0 {
		return nil
	}
	ws := make([]float64, len(ctxs))
	for i, c := range ctxs {
		if isFirstOfCore(t, c) {
			ws[i] = 3
		} else {
			ws[i] = 1
		}
	}
	return ws
}

func isFirstOfCore(t *topo.Topology, ctx int) bool {
	c := t.Context(ctx)
	if c == nil {
		return false
	}
	return c.Core.Contexts[0].ID == ctx
}

// SortedInt32 reports whether a slice is ascending (test helper exposed for
// the examples).
func SortedInt32(a []int32) bool {
	return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
}
