package topo

import "sort"

// queryIndex is the immutable, precomputed query layer of a Topology. The
// paper's pitch is that MCTOP queries are cheap enough to sit inside runtime
// policies (lock backoff quanta, placement builds); re-deriving answers
// from the group tree on every call is not.
// The index is built once per topology — lazily, on the first query that
// needs it — and turns the hot paths into array lookups:
//
//   - lat is the flat ctx×ctx latency matrix (n ≤ 256 on the paper's
//     machines, so the dense int64 matrix tops out at 512 KB; a level-id
//     matrix + level table would shrink it 8x if a future platform needs
//     it), making GetLatency O(1) and MaxLatencyBetween a pure array scan;
//   - coreIdx/socketIdx flatten the context→core→socket pointer chases into
//     two int32 lookups. Occupancy (occupancy.go) is the one pass over them:
//     the summary of the cores and sockets a context set uses, ordered by id
//     and first use — never by map iteration — that the power estimate, the
//     placement report and the cost models all read;
//   - socketCores, byLocalBW and byLatencyFrom memoize the per-socket core
//     slices and the socket orders every placement build re-derived.
//
// Topologies are immutable after construction (package doc), so the index
// never needs invalidation and is safe to share between goroutines.
type queryIndex struct {
	n   int
	lat []int64 // flattened n×n matrix; lat[x*n+y]

	maxLat int64 // MaxLatency, memoized

	coreIdx   []int32 // ctx id -> index into Topology.cores
	socketIdx []int32 // ctx id -> socket id

	socketCores   [][]*HWCGroup // socket id -> its cores, in core-id order
	byLocalBW     []*Socket     // sockets ordered by local memory BW, best first
	byLatencyFrom [][]*Socket   // socket id -> other sockets, closest first
}

// index returns the topology's query index, building it on first use. The
// sync.Once makes concurrent first queries race-free — one goroutine
// builds, the rest wait — and the steady state is a single inlinable
// atomic load.
func (t *Topology) index() *queryIndex {
	if idx := t.idx.Load(); idx != nil {
		return idx
	}
	t.idxOnce.Do(func() { t.idx.Store(buildIndex(t)) })
	return t.idx.Load()
}

// buildIndex precomputes every memoized structure from the slow reference
// implementations, so the indexed hot paths are equal to the pre-index ones
// by construction (property-tested in index_test.go).
func buildIndex(t *Topology) *queryIndex {
	n := len(t.contexts)
	idx := &queryIndex{
		n:         n,
		lat:       make([]int64, n*n),
		coreIdx:   make([]int32, n),
		socketIdx: make([]int32, n),
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			l := t.getLatencyWalk(x, y)
			idx.lat[x*n+y] = l
			idx.lat[y*n+x] = l
		}
	}
	idx.maxLat = t.maxLatencyScan()

	coreOf := make(map[*HWCGroup]int32, len(t.cores))
	for i, c := range t.cores {
		coreOf[c] = int32(i)
	}
	for i, c := range t.contexts {
		idx.coreIdx[i] = coreOf[c.Core]
		idx.socketIdx[i] = int32(c.Socket.ID)
	}

	idx.socketCores = make([][]*HWCGroup, len(t.sockets))
	for _, s := range t.sockets {
		idx.socketCores[s.ID] = t.socketGetCoresScan(s)
	}
	idx.byLocalBW = t.socketsByLocalBWSort()
	idx.byLatencyFrom = make([][]*Socket, len(t.sockets))
	for _, s := range t.sockets {
		idx.byLatencyFrom[s.ID] = t.socketsByLatencyFromSort(s.ID)
	}
	return idx
}

// getLatencyWalk is the pre-index GetLatency: it walks the group tree to the
// lowest common group of the two contexts. Kept as the reference the index
// is built from and property-tested against.
func (t *Topology) getLatencyWalk(x, y int) int64 {
	if x == y {
		return 0
	}
	cx, cy := t.Context(x), t.Context(y)
	if cx == nil || cy == nil {
		return -1
	}
	if cx.Socket != cy.Socket {
		return t.socketLat[cx.Socket.ID][cy.Socket.ID]
	}
	// Lowest common group: walk up from the core.
	gx, gy := cx.Core, cy.Core
	if gx == gy {
		if gx.Latency > 0 {
			return gx.Latency
		}
		return 0 // synthesized single-context core
	}
	for gx != nil && gy != nil {
		if gx.Parent == gy.Parent {
			if gx.Parent != nil {
				return gx.Parent.Latency
			}
			break
		}
		gx, gy = gx.Parent, gy.Parent
	}
	return cx.Socket.Latency
}

// maxLatencyScan is the pre-index MaxLatency: a scan over the socket matrix
// and the intra-socket levels.
func (t *Topology) maxLatencyScan() int64 {
	var max int64
	for _, row := range t.socketLat {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	for _, l := range t.levels {
		if l.Kind != LevelCross && l.Median > max {
			max = l.Median
		}
	}
	return max
}

// socketGetCoresScan is the pre-index SocketGetCores: a scan over all cores.
func (t *Topology) socketGetCoresScan(s *Socket) []*HWCGroup {
	var cores []*HWCGroup
	for _, c := range t.cores {
		if c.Socket == s {
			cores = append(cores, c)
		}
	}
	return cores
}

// socketsByLocalBWSort is the pre-index SocketsByLocalBW: a stable sort per
// call.
func (t *Topology) socketsByLocalBWSort() []*Socket {
	out := append([]*Socket(nil), t.sockets...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].LocalBW() > out[j].LocalBW()
	})
	return out
}

// socketsByLatencyFromSort is the pre-index SocketsByLatencyFrom: a sort per
// call.
func (t *Topology) socketsByLatencyFromSort(s int) []*Socket {
	type entry struct {
		sock *Socket
		lat  int64
	}
	var es []entry
	for _, o := range t.sockets {
		if o.ID == s {
			continue
		}
		es = append(es, entry{o, t.socketLat[s][o.ID]})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].lat != es[j].lat {
			return es[i].lat < es[j].lat
		}
		return es[i].sock.ID < es[j].sock.ID
	})
	out := make([]*Socket, len(es))
	for i, e := range es {
		out[i] = e.sock
	}
	return out
}
