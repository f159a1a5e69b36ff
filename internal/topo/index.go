package topo

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// queryIndex is the immutable, precomputed query layer of a Topology. The
// paper's pitch is that MCTOP queries are cheap enough to sit inside runtime
// policies (lock backoff quanta, placement builds); re-deriving answers
// from the level partitions on every call is not.
// The index is built once per topology — lazily, on the first query that
// needs it — and turns the hot paths into array lookups. Like the paper's
// mctopo_t, which keeps one latency per level and a socket-pair table, it
// holds O(n + S²) words and never a context×context table:
//
//   - keys holds one ctxKey per context: its socket, and a path that packs
//     its place inside the socket into one word — at each level from the
//     socket down to the core the index of its group among its parent's
//     children, then its index within its core. Two contexts of different
//     sockets communicate at their entry of the flat S×S socket matrix; two
//     of one socket at the latency of their lowest common group, which is
//     fixed by the highest bit in which their paths differ, which indexes
//     within. GetLatency is two table reads and a socket compare, and the
//     maximum latency among a socket's contexts is the OR of their paths'
//     XORs with any one of them;
//   - coreIdx and the keys' sockets flatten the context→core→socket pointer
//     chases into two int32 lookups. Occupancy (occupancy.go) is the one
//     pass over them: the summary of the cores and sockets a context set
//     uses, ordered by id and first use — never by map iteration — that the
//     power estimate, the placement report and the cost models all read;
//   - coreOff, byLocalBW and byLatencyFrom memoize the per-socket core
//     ranges and the socket orders every placement build re-derived.
//
// Topologies are immutable after construction (package doc), so the index
// never needs invalidation and is safe to share between goroutines.
type queryIndex struct {
	n, nS int

	keys []ctxKey // by ctx id
	// within[k] is the latency of two contexts of one socket whose paths
	// differ in bit k-1 and no higher one; within[0], a context with
	// itself, is 0.
	within [65]int64
	cross  []int64 // flat S×S socket matrix; cross[a*nS+b]

	maxLat int64 // MaxLatency, memoized

	coreIdx []int32 // ctx id -> index into Topology.cores

	coreOff       []int32     // socket s's cores are Topology.cores[coreOff[s]:coreOff[s+1]]
	byLocalBW     []*Socket   // sockets ordered by local memory BW, best first
	byLatencyFrom [][]*Socket // socket id -> other sockets, closest first
}

// ctxKey is a context's entry in the index. row is where its socket's row
// of the socket matrix starts, so a.row+b.socket indexes the entry of a's
// and b's sockets.
type ctxKey struct {
	path        uint64
	row, socket int32
}

// latency is the communication latency between two known contexts; 0
// between a context and itself. It is the per-pair lookup of GetLatency
// and must stay inlinable.
func (idx *queryIndex) latency(a, b ctxKey) int64 {
	// Both entries are read and one is kept, which compiles to a
	// conditional move: a branch on the sockets mispredicts on mixed pairs.
	l, cross := idx.within[bits.Len64(a.path^b.path)], idx.cross[a.row+b.socket]
	if a.socket != b.socket {
		l = cross
	}
	return l
}

// latencyFrom is latency from one known context, kx, whose row of the
// socket matrix is row, to the known context k: FoldArrivals' per-key
// lookup, which must stay inlinable. It branches on the socket instead: on
// the id-ordered candidate lists of the task mapper a socket's contexts
// come in runs, so the branch predicts well and beats the conditional move
// latency needs for random pairs.
func (idx *queryIndex) latencyFrom(kx ctxKey, row []int64, k ctxKey) int64 {
	if k.socket != kx.socket {
		return row[k.socket]
	}
	return idx.within[bits.Len64(kx.path^k.path)]
}

// index returns the topology's query index, building it on first use. The
// steady state is a single inlinable atomic load; the first query takes
// the out-of-line buildIndexOnce, so the sync.Once closure does not push
// index over the inlining budget.
func (t *Topology) index() *queryIndex {
	if idx := t.idx.Load(); idx != nil {
		return idx
	}
	return t.buildIndexOnce()
}

// buildIndexOnce builds the index under the sync.Once, which makes
// concurrent first queries race-free: one goroutine builds, the rest wait.
func (t *Topology) buildIndexOnce() *queryIndex {
	t.idxOnce.Do(func() { t.idx.Store(buildIndex(t)) })
	return t.idx.Load()
}

// NumOrders is how many slot orders a Topology memoizes: one per builtin
// placement policy of the paper's Table 2 (internal/place), which numbers
// its policies 0 to NumOrders-1.
const NumOrders = 12

// orderMemo is one memoized order: the index's pattern of a sync.Once for a
// race-free first build and an atomic pointer for the steady-state read.
type orderMemo struct {
	once sync.Once
	p    atomic.Pointer[[]int]
}

// MemoOrder returns the order memoized in slot (0 <= slot < NumOrders),
// or nil until BuildMemoOrder has built it. Like libmctop's mctopo_t,
// which stores each socket's context array once, a Topology keeps at most
// NumOrders orders of at most one entry per context, and they live and die
// with it. The result is shared by every caller: it must not be modified.
// This is the steady-state read, a single inlinable atomic load; the build
// lives out of line in BuildMemoOrder, since no call fits in the inlining
// budget beside the load.
func (t *Topology) MemoOrder(slot int) []int {
	if o := t.orders[slot].p.Load(); o != nil {
		return *o
	}
	return nil
}

// BuildMemoOrder returns the order memoized in slot, building it with
// build(t, slot) on first use: one goroutine builds, the rest wait, as in
// buildIndexOnce. build must be a pure function of (t, slot), and should
// be a top-level function, which costs no allocation to pass.
func (t *Topology) BuildMemoOrder(slot int, build func(t *Topology, slot int) []int) []int {
	m := &t.orders[slot]
	m.once.Do(func() {
		o := build(t, slot)
		m.p.Store(&o)
	})
	return *m.p.Load()
}

// buildIndex precomputes every memoized structure. The latency layout is
// property-tested against the latencies the spec gives (oracle_test.go),
// and the rest is built from the slow reference implementations, so the
// indexed hot paths are equal to the pre-index ones (index_test.go).
func buildIndex(t *Topology) *queryIndex {
	n, nS := len(t.contexts), len(t.sockets)
	idx := &queryIndex{
		n:       n,
		nS:      nS,
		cross:   make([]int64, nS*nS),
		coreIdx: make([]int32, n),
		coreOff: make([]int32, nS+1),
	}
	idx.maxLat = t.maxLatencyScan()
	idx.keys = t.contextPaths(&idx.within)
	for a, row := range t.spec.SocketLat {
		copy(idx.cross[a*nS:], row)
	}
	for i, c := range t.contexts {
		idx.coreIdx[i] = int32(c.Core.ID)
	}
	// Cores are numbered socket by socket, so each socket's cores are one
	// range of Topology.cores.
	for _, c := range t.cores {
		idx.coreOff[c.Socket.ID+1]++
	}
	for s := 0; s < nS; s++ {
		idx.coreOff[s+1] += idx.coreOff[s]
	}

	idx.byLocalBW = t.socketsByLocalBWSort()
	idx.byLatencyFrom = make([][]*Socket, nS)
	for _, s := range t.sockets {
		idx.byLatencyFrom[s.ID] = t.socketsByLatencyFromSort(s.ID)
	}
	return idx
}

// contextPaths lays out the contexts' paths (see queryIndex) straight from
// the spec's level partitions and returns the contexts' keys, filling within
// for the bit lengths of the paths' differences.
//
// A path's lowest field is the context's index within its core. Above it
// come the cores, then every grouped level above them up to the socket —
// level 0 too on a machine without SMT, whose cores are synthesized — each
// field holding the index of the context's group among its parent's
// children, counted by smallest context. A field is as wide as its largest
// index; the widths add up to at most twice log₂ of the contexts per
// socket, so a path fits a word.
func (t *Topology) contextPaths(within *[65]int64) []ctxKey {
	n, nS := len(t.contexts), len(t.sockets)
	keys := make([]ctxKey, n)
	var inCore int
	for _, core := range t.cores {
		s := core.Socket.ID
		for i, c := range core.Contexts {
			keys[c.ID] = ctxKey{path: uint64(i), row: int32(s * nS), socket: int32(s)}
		}
		inCore = max(inCore, len(core.Contexts)-1)
	}
	// Two contexts of one core communicate at the core's latency.
	off := uint(bits.Len(uint(inCore)))
	for b := uint(0); b < off; b++ {
		within[b+1] = t.cores[0].Latency
	}

	// The levels above the cores: from level 1 when level 0's groups are
	// the cores, else from level 0, up to the socket level.
	levels := t.spec.Levels
	first, si := 0, t.spec.socketLevelIdx()
	if t.spec.SMTWays > 1 && si > 0 {
		first = 1
	}
	// group[ctx] is ctx's group in the partition whose field is being laid
	// out, parent[ctx] its group in the level above, whose latency two
	// contexts that differ in the field communicate at.
	group, parent := make([]int32, n), make([]int32, n)
	for i, c := range t.contexts {
		group[i] = int32(c.Core.ID)
	}
	nGroups := len(t.cores)
	for l := first; l <= si; l++ {
		for gi, g := range levels[l].Groups {
			for _, ctx := range g {
				parent[ctx] = int32(gi)
			}
		}
		// local[g] is group g's index among its parent's children, set
		// at its smallest context.
		local := make([]int32, nGroups)
		children := make([]int32, len(levels[l].Groups))
		for g := range local {
			local[g] = -1
		}
		var top int32
		for ctx, g := range group {
			if local[g] < 0 {
				local[g] = children[parent[ctx]]
				children[parent[ctx]]++
				top = max(top, local[g])
			}
			keys[ctx].path |= uint64(local[g]) << off
		}
		width := uint(bits.Len32(uint32(top)))
		for b := off; b < off+width; b++ {
			within[b+1] = levels[l].Median
		}
		off += width
		group, parent, nGroups = parent, group, len(levels[l].Groups)
	}
	return keys
}

// maxLatencyScan is the pre-index MaxLatency: a scan over the socket matrix
// and the intra-socket levels.
func (t *Topology) maxLatencyScan() int64 {
	var max int64
	for _, row := range t.spec.SocketLat {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	for _, l := range t.spec.Levels {
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
		es = append(es, entry{o, t.spec.SocketLat[s][o.ID]})
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
