package topo

import "math/bits"

// Occupancy is the one summary of which cores and sockets a set of hardware
// contexts occupies. Everything that needs that fact — the placement report
// and accessors of Figure 7, the power estimate, a placement's backoff
// quantum, the execution and sort models — reads it from here instead of
// re-deriving it.
//
// Ordering guarantee: every slice is ordered by id or by the caller's own
// order, never by map iteration, so a float sum taken over an Occupancy is
// the same on every run.
//
// Unknown context ids — and a placement's -1 "unpinned" slots — are skipped;
// a context listed twice counts twice. An Occupancy is immutable and shared
// by its holders: treat the slices as read-only.
type Occupancy struct {
	t *Topology

	// N is the number of contexts counted.
	N int
	// NCores is the number of distinct cores occupied.
	NCores int
	// CtxPerCore[i] counts the contexts on Topology.Cores()[i].
	CtxPerCore []int32
	// CtxPerSocket and CoresPerSocket count, per socket id, the contexts
	// and the distinct cores occupied there.
	CtxPerSocket, CoresPerSocket []int32
	// Sockets lists the occupied socket ids in first-use order.
	Sockets []int

	// off and flat bucket the contexts by socket (see bucket).
	off, flat []int
}

// Occupancy summarizes ctxs in two passes over the query index's ctx→core
// and ctx→socket tables: count, then bucket by socket.
func (t *Topology) Occupancy(ctxs []int) *Occupancy {
	o := t.count(ctxs)
	o.off, o.flat = t.index().bucket(ctxs, o.CtxPerSocket)
	return &o
}

// count is Occupancy's first pass, and all of it the power estimate needs:
// every field but the per-socket context lists.
func (t *Topology) count(ctxs []int) Occupancy {
	idx := t.index()
	nC, nS := len(t.cores), len(t.sockets)
	// The loop works on locals so the counters' headers stay in registers.
	counters := make([]int32, nC+2*nS)
	perCore, perSocket, coresPerSocket := counters[:nC], counters[nC:nC+nS], counters[nC+nS:]
	sockets := make([]int, 0, nS)
	n, nCores := 0, 0
	for _, c := range ctxs {
		if uint(c) >= uint(idx.n) {
			continue
		}
		n++
		s, core := idx.keys[c].socket, idx.coreIdx[c]
		if perSocket[s]++; perSocket[s] == 1 {
			sockets = append(sockets, int(s))
		}
		if perCore[core]++; perCore[core] == 1 {
			nCores++
			coresPerSocket[s]++
		}
	}
	return Occupancy{
		t: t, N: n, NCores: nCores, Sockets: sockets,
		CtxPerCore: perCore, CtxPerSocket: perSocket, CoresPerSocket: coresPerSocket,
	}
}

// bucket groups the valid contexts of ctxs by socket, keeping the given
// order within each: socket s's contexts are flat[off[s]:off[s+1]].
// perSocket must hold the per-socket counts of those contexts.
func (idx *queryIndex) bucket(ctxs []int, perSocket []int32) (off, flat []int) {
	nS := len(perSocket)
	ints := make([]int, nS+1+len(ctxs))
	off, flat = ints[:nS+1], ints[nS+1:]
	for s, k := range perSocket {
		off[s+1] = off[s] + int(k)
	}
	// off[s] doubles as socket s's fill cursor, which leaves every entry one
	// window ahead after the pass; shifting them back restores the starts.
	for _, c := range ctxs {
		if uint(c) < uint(idx.n) {
			s := idx.keys[c].socket
			flat[off[s]] = c
			off[s]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	return off, flat[:off[nS]]
}

// On returns the contexts occupied on a socket, in the given order.
func (o *Occupancy) On(socket int) []int {
	return o.flat[o.off[socket]:o.off[socket+1]]
}

// MaxLatency returns the maximum communication latency among the contexts.
func (o *Occupancy) MaxLatency() int64 {
	return o.t.maxLatencyBucketed(o.off, o.flat)
}

// maxLatencyBucketed is the maximum latency among contexts bucketed by
// socket. The cross-socket latency of a pair depends only on its socket
// pair, so all cross-socket pairs collapse to one socket-matrix lookup per
// occupied socket pair. Within a socket, latency grows with the highest
// group level at which two contexts part, so the socket's maximum is that
// of the highest level its contexts span two groups of: the highest bit in
// which any of their paths differs from the first one's (a duplicate
// differs in none and adds nothing) — O(S² + k) array reads.
func (t *Topology) maxLatencyBucketed(off, flat []int) int64 {
	idx := t.index()
	nS := len(t.sockets)
	var max int64
	for s1 := 0; s1 < nS; s1++ {
		bucket := flat[off[s1]:off[s1+1]]
		if len(bucket) == 0 {
			continue
		}
		for s2 := s1 + 1; s2 < nS; s2++ {
			if l := t.spec.SocketLat[s1][s2]; l > max && off[s2] < off[s2+1] {
				max = l
			}
		}
		first, spread := idx.keys[bucket[0]].path, uint64(0)
		for _, x := range bucket[1:] {
			spread |= idx.keys[x].path ^ first
		}
		if l := idx.within[bits.Len64(spread)]; l > max {
			max = l
		}
	}
	return max
}

// Power estimates package power with the contexts active, using the power
// plugin's model (all zero when power data is unavailable). Core
// contributions accumulate in ascending core order.
func (o *Occupancy) Power(withDRAM bool) (perSocket []float64, total float64) {
	t := o.t
	perSocket = make([]float64, len(t.sockets))
	pw := t.spec.Power
	if !pw.Available() {
		return perSocket, 0
	}
	for _, s := range o.Sockets {
		perSocket[s] = pw.PerSocketBase
		if withDRAM {
			perSocket[s] += pw.DRAM
		}
	}
	for core, n := range o.CtxPerCore {
		if n > 0 {
			perSocket[t.cores[core].Socket.ID] += pw.PerFirstCtx + float64(n-1)*pw.PerExtraCtx
		}
	}
	for _, p := range perSocket {
		total += p
	}
	return perSocket, total
}
