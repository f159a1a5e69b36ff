// Package topo implements MCTOP, the multi-core topology abstraction of the
// EuroSys '17 paper (Section 2, Table 1).
//
// A Topology links together the paper's six structures — hw_context,
// hwc_group, socket, node, interconnect and mctop — both vertically (to
// represent the hierarchy) and horizontally (to traverse each level), and
// carries the enriched low-level measurements (communication latencies,
// memory latencies and bandwidths, cache and power information) that make
// portable performance policies expressible.
//
// Topologies are constructed from a Spec — the serializable description
// produced by MCTOP-ALG (internal/mctopalg) and stored in description
// files — and never mutated afterwards.
package topo

import (
	"fmt"
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
// (Table 1).
type HWContext struct {
	ID     int
	Core   *HWCGroup // parent core group
	Socket *Socket
	// Next links contexts horizontally in proximity order: SMT siblings
	// first, then the other cores of the socket, then other sockets.
	Next *HWContext
}

// HWCGroup is a group of hw_contexts or of smaller hwc_groups: a core with
// its SMT contexts, or a cluster of cores sharing a cache level (Table 1).
type HWCGroup struct {
	ID      int
	Level   int // index into Topology.Levels; -1 for synthesized cores
	Latency int64
	// Contexts are the leaf hardware contexts under this group, ascending.
	Contexts []*HWContext
	// Children are the next-lower groups, nil for core-level groups.
	Children []*HWCGroup
	Parent   *HWCGroup
	Socket   *Socket
	Next     *HWCGroup
}

// Socket is an hwc_group with additional information about memory nodes and
// the interconnection with other sockets (Table 1).
type Socket struct {
	HWCGroup
	// Local is the socket's directly attached memory node.
	Local *Node
	// Interconnects lists this socket's links to every other socket,
	// ascending by peer socket id.
	Interconnects []*Interconnect
	// MemLat[n] / MemBW[n] are the measured latency (cycles) and bandwidth
	// (GB/s) from this socket to node n; nil before the memory plugins run.
	MemLat []int64
	MemBW  []float64
}

// Node is a memory node (Table 1).
type Node struct {
	ID int
	// Sockets lists the sockets this node is local to (usually one).
	Sockets []*Socket
	// Lat and BW are the measurements from the node's own socket.
	Lat int64
	BW  float64
}

// Interconnect is the connection between two sockets (Table 1).
type Interconnect struct {
	From, To *Socket
	Latency  int64
	// Hops is 1 for a direct link, 2 for the "lvl 4" non-direct relation.
	Hops int
	// BW is the link bandwidth in GB/s (0 if not measured).
	BW float64
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
// links everything together (Table 1).
type Topology struct {
	name     string
	smtWays  int
	freqGHz  float64
	levels   []Level
	contexts []*HWContext
	cores    []*HWCGroup
	// groups[l] holds the components of level l for intra-socket levels.
	groups  map[int][]*HWCGroup
	sockets []*Socket
	nodes   []*Node

	socketLat [][]int64
	socketBW  [][]float64

	cache *CacheInfo
	power *PowerInfo

	spec Spec // the originating spec, kept for serialization

	// idx is the precomputed query index (see index.go), built lazily on
	// the first hot-path query; idxOnce makes the build race-free, and the
	// atomic pointer keeps the steady-state load inlinable.
	idxOnce sync.Once
	idx     atomic.Pointer[queryIndex]
}

// Name returns the platform name the topology was inferred on.
func (t *Topology) Name() string { return t.name }

// NumHWContexts returns the number of hardware contexts.
func (t *Topology) NumHWContexts() int { return len(t.contexts) }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.cores) }

// NumSockets returns the number of sockets.
func (t *Topology) NumSockets() int { return len(t.sockets) }

// NumNodes returns the number of memory nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// SMTWays returns the number of hardware contexts per core (1 = no SMT).
func (t *Topology) SMTWays() int { return t.smtWays }

// HasSMT reports whether the processor has simultaneous multi-threading.
func (t *Topology) HasSMT() bool { return t.smtWays > 1 }

// FreqGHz returns the maximum core frequency, when known.
func (t *Topology) FreqGHz() float64 { return t.freqGHz }

// ModelFreqGHz is FreqGHz, or 2.0 when the description records none: the
// clock the cost models (exec, msort, reduce) convert cycles to seconds at.
func (t *Topology) ModelFreqGHz() float64 {
	if t.freqGHz <= 0 {
		return 2.0
	}
	return t.freqGHz
}

// Levels returns the latency levels, ascending.
func (t *Topology) Levels() []Level { return t.levels }

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
func (t *Topology) Cache() *CacheInfo { return t.cache }

// Power returns the power plugin's measurements, or nil.
func (t *Topology) Power() *PowerInfo { return t.power }

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
	cached := t.index().socketCores[s.ID]
	if cached == nil {
		return nil
	}
	return append([]*HWCGroup(nil), cached...)
}

// GetLatency returns the communication latency between two hardware
// contexts — the paper's mctop_get_latency(id0, id1). Zero for a context
// with itself. An O(1) matrix lookup (index.go); -1 for unknown contexts.
func (t *Topology) GetLatency(x, y int) int64 {
	if x == y {
		return 0
	}
	idx := t.index()
	if uint(x) >= uint(idx.n) || uint(y) >= uint(idx.n) {
		return -1
	}
	return idx.lat[x*idx.n+y]
}

// LatenciesFrom is the batch form of GetLatency for the cost models' inner
// loops: it sets dst[i] = GetLatency(x, ctxs[i]) — 0 on the diagonal, -1
// for unknown ids — and returns dst resized to len(ctxs), reusing its
// capacity.
func (t *Topology) LatenciesFrom(x int, ctxs []int, dst []int64) []int64 {
	if cap(dst) < len(ctxs) {
		dst = make([]int64, len(ctxs))
	}
	dst = dst[:len(ctxs)]
	idx := t.index()
	if uint(x) >= uint(idx.n) {
		for i, c := range ctxs {
			dst[i] = -1
			if c == x {
				dst[i] = 0
			}
		}
		return dst
	}
	row := idx.lat[x*idx.n : (x+1)*idx.n]
	for i, c := range ctxs {
		if uint(c) < uint(len(row)) {
			dst[i] = row[c]
		} else {
			dst[i] = -1
		}
	}
	return dst
}

// SocketLatency returns the communication latency between two sockets
// (intra-socket latency when s1 == s2).
func (t *Topology) SocketLatency(s1, s2 int) int64 {
	if s1 < 0 || s2 < 0 || s1 >= len(t.sockets) || s2 >= len(t.sockets) {
		return -1
	}
	return t.socketLat[s1][s2]
}

// SocketBW returns the measured interconnect bandwidth between two sockets,
// or 0 when unknown.
func (t *Topology) SocketBW(s1, s2 int) float64 {
	if t.socketBW == nil || s1 < 0 || s2 < 0 || s1 >= len(t.sockets) || s2 >= len(t.sockets) {
		return 0
	}
	return t.socketBW[s1][s2]
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
	// Small sets (the common lock-participant case): the pairwise matrix
	// loop beats bucketing by socket, and allocates nothing.
	if len(ctxs) <= 8 {
		var max int64
		for i := 0; i < len(ctxs); i++ {
			x := ctxs[i]
			if x < 0 || x >= idx.n {
				continue
			}
			row := idx.lat[x*idx.n : (x+1)*idx.n]
			for j := i + 1; j < len(ctxs); j++ {
				y := ctxs[j]
				if y >= 0 && y < idx.n && row[y] > max {
					max = row[y]
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
			perSocket[idx.socketIdx[x]]++
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
			l := t.socketLat[i][j]
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
// stealing (Section 5). Sort keys come straight out of the latency matrix.
func (t *Topology) ContextsByLatencyFrom(ctx int) []int {
	idx := t.index()
	type entry struct {
		id  int
		lat int64
	}
	var row []int64
	if ctx >= 0 && ctx < idx.n {
		row = idx.lat[ctx*idx.n : (ctx+1)*idx.n]
	}
	es := make([]entry, 0, idx.n)
	for _, c := range t.contexts {
		if c.ID == ctx {
			continue
		}
		l := int64(-1)
		if row != nil {
			l = row[c.ID]
		}
		es = append(es, entry{c.ID, l})
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
	if !t.power.Available() {
		return make([]float64, len(t.sockets)), 0
	}
	o := t.count(ctxs)
	return o.Power(withDRAM)
}
