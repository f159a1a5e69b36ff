// Package topo implements MCTOP, the multi-core topology abstraction of the
// EuroSys '17 paper (Section 2, Table 1).
//
// A Topology links the paper's structures — hw_context, hwc_group, socket,
// node and mctop — vertically, from each context up to its core, its socket
// and that socket's local node. The levels between a core and its socket
// are described once, by the spec's level partitions (Levels), which the
// latency queries read. Each structure is traversed by its ordered slice
// (Contexts, Cores, Sockets, Nodes), and the paper's interconnect structure
// is the socket matrices: SocketLatency and
// SocketBW answer every cross-socket question from the spec's per-pair
// latency and bandwidth, as libmctop's mctopo_t does. A Topology also
// carries the enriched low-level measurements (memory latencies and
// bandwidths, cache and power information) that make portable performance
// policies expressible.
//
// Topologies are constructed from a Spec — the serializable description
// produced by MCTOP-ALG (internal/mctopalg) and stored in description
// files — and never mutated afterwards.
package topo

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// LevelKind classifies a latency level of the topology.
type LevelKind int

const (
	// LevelGroup is an intra-socket grouping level (cores, cache clusters).
	LevelGroup LevelKind = iota
	// LevelSocket is the level whose components are sockets.
	LevelSocket
	// LevelCross is a cross-socket connectivity level (direct links, or the
	// "lvl 4" two-hop relation of Figures 1 and 2).
	LevelCross
)

func (k LevelKind) String() string {
	switch k {
	case LevelGroup:
		return "group"
	case LevelSocket:
		return "socket"
	case LevelCross:
		return "cross"
	}
	return fmt.Sprintf("LevelKind(%d)", int(k))
}

// Level describes one latency level: the cluster of measured latencies that
// formed it (min/median/max triplet) and, for intra-socket levels, the
// partition of hardware contexts into components.
type Level struct {
	Name   string
	Kind   LevelKind
	Min    int64
	Median int64
	Max    int64
	// Groups partitions context ids into the level's components. nil for
	// cross-socket levels, whose structure lives in the socket matrices.
	Groups [][]int
}

// HWContext is the lowest scheduling unit of the processor. If SMT exists
// it is a hardware context, otherwise it represents an actual core
// (Table 1). Contexts are traversed in id order by Topology.Contexts.
type HWContext struct {
	ID     int
	Core   *HWCGroup // parent core group
	Socket *Socket
}

// HWCGroup is a group of hw_contexts (Table 1): a core with its SMT
// contexts, or a socket's contexts. The groups of the levels between a core
// and its socket are the spec's partitions (Topology.Levels), not HWCGroups.
// Cores are traversed in id order, socket by socket, by Topology.Cores and
// Topology.SocketGetCores.
type HWCGroup struct {
	ID int
	// Latency is the median latency of the group's level: 0 for a
	// synthesized core, which holds one context.
	Latency int64
	// Contexts are the leaf hardware contexts under this group, ascending.
	Contexts []*HWContext
	Socket   *Socket
}

// Socket is an hwc_group with additional information about memory nodes
// (Table 1). Its interconnection with the other sockets is the topology's
// socket matrices (Topology.SocketLatency, Topology.SocketBW); sockets are
// traversed in id order by Topology.Sockets.
type Socket struct {
	HWCGroup
	// Local is the socket's directly attached memory node.
	Local *Node
	// MemLat[n] / MemBW[n] are the measured latency (cycles) and bandwidth
	// (GB/s) from this socket to node n; nil before the memory plugins run.
	MemLat []int64
	MemBW  []float64
}

// Node is a memory node (Table 1).
type Node struct {
	ID int
	// Lat and BW are the measurements from the node's own socket.
	Lat int64
	BW  float64
}

// CacheInfo carries the cache plugin's measurements (Section 4): latency in
// cycles and size in bytes for each of the three cache levels.
type CacheInfo struct {
	LatL1, LatL2, LatLLC    int64
	SizeL1, SizeL2, SizeLLC int64
}

// PowerInfo carries the power plugin's RAPL-style measurements (Section 4).
type PowerInfo struct {
	Idle      float64 // idle processor power
	Full      float64 // all hardware contexts active
	FirstCtx  float64 // incremental power of a core's first context
	SecondCtx float64 // incremental power of a core's second context
	// PerSocketBase, PerFirstCtx, PerExtraCtx and DRAM parameterize the
	// placement power estimator used by the POWER policy and Figure 7.
	PerSocketBase, PerFirstCtx, PerExtraCtx, DRAM float64
}

// Available reports whether power measurements exist (Intel-only in the
// paper).
func (p *PowerInfo) Available() bool { return p != nil && p.PerSocketBase > 0 }

// Topology is the paper's mctop structure: it represents a processor and
// links everything together (Table 1). What a query reads of the spec it
// was built from — levels, socket matrices, cache and power — it reads
// there.
type Topology struct {
	contexts []*HWContext
	cores    []*HWCGroup
	sockets  []*Socket
	nodes    []*Node

	spec Spec // the originating spec

	// idx is the precomputed query index (see index.go), built lazily on
	// the first hot-path query; idxOnce makes the build race-free, and the
	// atomic pointer keeps the steady-state load inlinable.
	idxOnce sync.Once
	idx     atomic.Pointer[queryIndex]

	// orders memoizes one full-machine slot order per builtin placement
	// policy (MemoOrder), built lazily like idx and read-only once stored.
	orders [NumOrders]orderMemo
}

// Name returns the platform name the topology was inferred on.
func (t *Topology) Name() string { return t.spec.Name }

// NumHWContexts returns the number of hardware contexts.
func (t *Topology) NumHWContexts() int { return len(t.contexts) }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.cores) }

// NumSockets returns the number of sockets.
func (t *Topology) NumSockets() int { return len(t.sockets) }

// NumNodes returns the number of memory nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// SMTWays returns the number of hardware contexts per core (1 = no SMT).
func (t *Topology) SMTWays() int { return t.spec.SMTWays }

// HasSMT reports whether the processor has simultaneous multi-threading.
func (t *Topology) HasSMT() bool { return t.spec.SMTWays > 1 }

// FreqGHz returns the maximum core frequency, when known.
func (t *Topology) FreqGHz() float64 { return t.spec.FreqGHz }

// ModelFreqGHz is FreqGHz, or 2.0 when the description records none: the
// clock the cost models (exec, msort, reduce) convert cycles to seconds at.
func (t *Topology) ModelFreqGHz() float64 {
	if t.spec.FreqGHz <= 0 {
		return 2.0
	}
	return t.spec.FreqGHz
}

// Levels returns the latency levels, ascending.
func (t *Topology) Levels() []Level { return t.spec.Levels }

// Context returns the hardware context with the given id.
func (t *Topology) Context(id int) *HWContext {
	if id < 0 || id >= len(t.contexts) {
		return nil
	}
	return t.contexts[id]
}

// Contexts returns all hardware contexts in id order.
func (t *Topology) Contexts() []*HWContext { return t.contexts }

// Cores returns all core groups in id order.
func (t *Topology) Cores() []*HWCGroup { return t.cores }

// Socket returns the socket with the given id.
func (t *Topology) Socket(id int) *Socket {
	if id < 0 || id >= len(t.sockets) {
		return nil
	}
	return t.sockets[id]
}

// Sockets returns all sockets in id order.
func (t *Topology) Sockets() []*Socket { return t.sockets }

// Node returns the memory node with the given id.
func (t *Topology) Node(id int) *Node {
	if id < 0 || id >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// Nodes returns all memory nodes in id order.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Cache returns the cache plugin's measurements, or nil.
func (t *Topology) Cache() *CacheInfo { return t.spec.Cache }

// Power returns the power plugin's measurements, or nil.
func (t *Topology) Power() *PowerInfo { return t.spec.Power }

// GetLocalNode returns the local memory node of a hardware context — the
// paper's mctop_get_local_node(hw_ctx).
func (t *Topology) GetLocalNode(ctx int) *Node {
	c := t.Context(ctx)
	if c == nil {
		return nil
	}
	return c.Socket.Local
}

// SocketGetCores returns the cores of a socket — the paper's
// mctop_socket_get_cores(socket). The result is a copy of the index's
// memoized per-socket slice, so callers may reorder it freely.
func (t *Topology) SocketGetCores(s *Socket) []*HWCGroup {
	if s == nil || s.ID < 0 || s.ID >= len(t.sockets) || t.sockets[s.ID] != s {
		// A socket of another topology: fall back to the identity scan,
		// which correctly finds nothing.
		return t.socketGetCoresScan(s)
	}
	off := t.index().coreOff
	lo, hi := off[s.ID], off[s.ID+1]
	if lo == hi {
		return nil
	}
	return append([]*HWCGroup(nil), t.cores[lo:hi]...)
}

// GetLatency returns the communication latency between two hardware
// contexts — the paper's mctop_get_latency(id0, id1). Zero for a context
// with itself. An O(1) lookup of the two contexts' paths (index.go); -1 for
// unknown contexts.
func (t *Topology) GetLatency(x, y int) int64 {
	if x == y {
		return 0
	}
	idx := t.index()
	keys := idx.keys
	if uint(x) >= uint(len(keys)) || uint(y) >= uint(len(keys)) {
		return -1
	}
	return idx.latency(keys[x], keys[y])
}

// FoldArrivals is the task mapper's earliest-start query, one pass over
// the candidates' keys: data that leaves context x at time at, lines cache
// lines of it, reaches ctxs[i] at at + lines·GetLatency(x, ctxs[i]) (0 on
// the diagonal, -1 for unknown ids, as GetLatency answers), and
// FoldArrivals raises start[i] to that arrival where it is later. It
// returns the index of the earliest start after the fold, the lowest index
// on ties (0 for no candidates). start must hold at least len(ctxs)
// entries.
func (t *Topology) FoldArrivals(x int, at, lines int64, ctxs []int, start []int64) int {
	start = start[:len(ctxs)]
	best, earliest := 0, int64(math.MaxInt64)
	idx := t.index()
	keys := idx.keys
	if uint(x) >= uint(idx.n) {
		for i, c := range ctxs {
			l := int64(-1)
			if c == x {
				l = 0
			}
			if s := max(start[i], at+lines*l); s < earliest {
				start[i], best, earliest = s, i, s
			} else {
				start[i] = s
			}
		}
		return best
	}
	kx := keys[x]
	row := idx.cross[kx.row : kx.row+int32(idx.nS)]
	for i, c := range ctxs {
		l := int64(-1)
		if uint(c) < uint(len(keys)) {
			l = idx.latencyFrom(kx, row, keys[c])
		}
		s := max(start[i], at+lines*l)
		start[i] = s
		if s < earliest {
			best, earliest = i, s
		}
	}
	return best
}

// SocketLatency returns the communication latency between two sockets
// (intra-socket latency when s1 == s2).
func (t *Topology) SocketLatency(s1, s2 int) int64 {
	if s1 < 0 || s2 < 0 || s1 >= len(t.sockets) || s2 >= len(t.sockets) {
		return -1
	}
	return t.spec.SocketLat[s1][s2]
}

// SocketBW returns the measured interconnect bandwidth between two sockets,
// or 0 when unknown.
func (t *Topology) SocketBW(s1, s2 int) float64 {
	if t.spec.SocketBW == nil || s1 < 0 || s2 < 0 || s1 >= len(t.sockets) || s2 >= len(t.sockets) {
		return 0
	}
	return t.spec.SocketBW[s1][s2]
}

// MaxLatency returns the maximum communication latency on the machine —
// the backoff quantum of the paper's educated-backoff policy when all
// contexts participate. Memoized in the query index.
func (t *Topology) MaxLatency() int64 {
	return t.index().maxLat
}

// MaxLatencyBetween returns the maximum communication latency among the
// given hardware contexts (Section 5: "the backoff quantum is the maximum
// latency between any two threads involved in the execution"). Unknown
// context ids never contribute (their pairwise latency is -1).
func (t *Topology) MaxLatencyBetween(ctxs []int) int64 {
	idx := t.index()
	// Small sets (the common lock-participant case): the pairwise loop
	// beats bucketing by socket, and allocates nothing.
	if len(ctxs) <= 8 {
		var max int64
		keys := idx.keys
		for i, x := range ctxs {
			if uint(x) >= uint(len(keys)) {
				continue
			}
			for _, y := range ctxs[i+1:] {
				if uint(y) < uint(len(keys)) {
					if l := idx.latency(keys[x], keys[y]); l > max {
						max = l
					}
				}
			}
		}
		return max
	}
	// A full Occupancy also counts cores, which this query never reads and
	// which measurably slows it; the per-socket counts are all bucket needs.
	perSocket := make([]int32, len(t.sockets))
	for _, x := range ctxs {
		if x >= 0 && x < idx.n {
			perSocket[idx.keys[x].socket]++
		}
	}
	return t.maxLatencyBucketed(idx.bucket(ctxs, perSocket))
}

// SocketsByLatencyFrom returns the other sockets ordered by communication
// latency from s (closest first) — the primitive behind "use the socket
// closest to socket x" policies. The order is memoized per socket; the
// returned slice is a copy. Nil for an unknown socket id.
func (t *Topology) SocketsByLatencyFrom(s int) []*Socket {
	if s < 0 || s >= len(t.sockets) {
		return nil
	}
	return append([]*Socket(nil), t.index().byLatencyFrom[s]...)
}

// SocketsByLocalBW returns the sockets ordered by local memory bandwidth,
// best first — the seed of the CON_* and RR placement policies (Table 2).
// Sockets without memory measurements keep id order at the end. The order
// is memoized; the returned slice is a copy.
func (t *Topology) SocketsByLocalBW() []*Socket {
	return append([]*Socket(nil), t.index().byLocalBW...)
}

// LocalBW returns the measured bandwidth (GB/s) from the socket to its own
// memory node, or 0 when the bandwidth plugin did not run.
func (s *Socket) LocalBW() float64 {
	if s.MemBW == nil {
		return 0
	}
	return s.MemBW[s.Local.ID]
}

// MinLatencyPair returns the pair of distinct sockets with the lowest
// communication latency ("use any two sockets that minimize latency").
func (t *Topology) MinLatencyPair() (a, b *Socket) {
	best := int64(-1)
	for i := 0; i < len(t.sockets); i++ {
		for j := i + 1; j < len(t.sockets); j++ {
			l := t.spec.SocketLat[i][j]
			if best == -1 || l < best {
				best = l
				a, b = t.sockets[i], t.sockets[j]
			}
		}
	}
	return a, b
}

// MaxBWPair returns the pair of distinct sockets with the highest
// interconnect bandwidth ("use two sockets with maximum bandwidth"), or
// the min-latency pair when bandwidths are unknown.
func (t *Topology) MaxBWPair() (a, b *Socket) {
	best := -1.0
	for i := 0; i < len(t.sockets); i++ {
		for j := i + 1; j < len(t.sockets); j++ {
			if bw := t.SocketBW(i, j); bw > best {
				best = bw
				a, b = t.sockets[i], t.sockets[j]
			}
		}
	}
	if best <= 0 {
		return t.MinLatencyPair()
	}
	return a, b
}

// ContextsByLatencyFrom returns all other hardware contexts ordered by
// latency from ctx, closest first — the victim order of topology-aware work
// stealing (Section 5). Sort keys are the index's per-pair lookups; all -1
// for an unknown ctx.
func (t *Topology) ContextsByLatencyFrom(ctx int) []int {
	idx := t.index()
	type entry struct {
		id  int
		lat int64
	}
	known := uint(ctx) < uint(idx.n)
	var kx ctxKey
	if known {
		kx = idx.keys[ctx]
	}
	es := make([]entry, 0, idx.n)
	for id, k := range idx.keys {
		if id == ctx {
			continue
		}
		l := int64(-1)
		if known {
			l = idx.latency(kx, k)
		}
		es = append(es, entry{id, l})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].lat != es[j].lat {
			return es[i].lat < es[j].lat
		}
		return es[i].id < es[j].id
	})
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return out
}

// PowerEstimate estimates package power for a set of active contexts using
// the power plugin's model (0 when power data is unavailable).
func (t *Topology) PowerEstimate(ctxs []int, withDRAM bool) (perSocket []float64, total float64) {
	if !t.spec.Power.Available() {
		return make([]float64, len(t.sockets)), 0
	}
	o := t.count(ctxs)
	return o.Power(withDRAM)
}
