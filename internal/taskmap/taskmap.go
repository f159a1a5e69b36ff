// Package taskmap maps weighted task DAGs onto hardware contexts of an
// MCTOP topology — the AMTHA direction (De Giusti et al.): node weights
// are compute cycles, edge weights are communication volumes in bytes,
// and the mapper minimizes estimated completion time under the
// topology's O(1) ctx×ctx latency index.
//
// The engine is three layers, all deterministic for fixed inputs:
//
//   - Estimate: a list-scheduling simulator that prices an assignment —
//     tasks execute in the DAG's canonical topological order, an edge
//     crossing contexts costs ceil(volume/64) cache-line transfers at the
//     measured pairwise latency, and the cost is the makespan in cycles.
//   - Greedy (AMTHA-style): ready tasks picked by priority = compute
//     weight + pending communication, each assigned to the context that
//     finishes it earliest; ties break to the lowest task then context ID.
//   - Refine: a bounded-budget hill-climb over single-task moves and
//     pairwise swaps, strict improvements only.
//
// BruteForce is the exhaustive reference the property tests compare
// against. Reconstruct rebuilds a Mapping from persisted fields (spool
// sidecars, /v1/export bodies) without re-running the mapper.
package taskmap

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/topo"
)

// CacheLine is the transfer granularity of the cost model: an edge of V
// bytes between contexts x≠y costs ceil(V/CacheLine)·GetLatency(x,y)
// cycles, zero when co-located.
const CacheLine = 64

// Options tunes a mapping run.
type Options struct {
	// RefineBudget bounds the refinement pass: the maximum number of
	// candidate assignments the hill-climb may price. 0 disables
	// refinement (pure greedy).
	RefineBudget int
	// Ctxs restricts the candidate hardware contexts; nil means every
	// context of the topology. Must be duplicate-free and in range.
	Ctxs []int
}

// Mapping is a task→context assignment with its priced cost. Mappings are
// immutable once built and safe for concurrent use.
type Mapping struct {
	t      *topo.Topology
	name   string
	nodes  int
	edges  int
	algo   string
	cost   int64
	assign []int

	// hash is the canonical hash of the mapped DAG (graph.TaskDAG.Hash).
	// A mapper leaves it to DAGHash's first call, which hashes dag — the
	// mapper's own copy of the DAG's nodes and edges, so a caller editing
	// its DAG after Map changes nothing — and then drops the copy. A
	// reconstructed mapping carries its hash and no copy.
	hashOnce sync.Once
	hash     uint64
	dag      graph.TaskDAG
}

// newMapping is a mapper's result for d: the assignment, its cost, and a
// copy of d's structure for DAGHash.
func newMapping(t *topo.Topology, d *graph.TaskDAG, algo string, cost int64, assign []int) *Mapping {
	return &Mapping{
		t:      t,
		name:   d.Name,
		nodes:  len(d.Nodes),
		edges:  len(d.Edges),
		algo:   algo,
		cost:   cost,
		assign: assign,
		dag:    graph.TaskDAG{Nodes: slices.Clone(d.Nodes), Edges: slices.Clone(d.Edges)},
	}
}

// Topology returns the topology the mapping was computed against.
func (m *Mapping) Topology() *topo.Topology { return m.t }

// DAGName returns the (non-canonical) name of the mapped DAG, if any.
func (m *Mapping) DAGName() string { return m.name }

// DAGHash returns the canonical hash of the mapped DAG, as it was when it
// was mapped. Most callers of Map never read it, so it is computed on
// first use.
func (m *Mapping) DAGHash() uint64 {
	m.hashOnce.Do(m.hashDAG)
	return m.hash
}

// hashDAG is DAGHash's first call: it hashes the mapper's copy of the DAG,
// if there is one, and drops it.
func (m *Mapping) hashDAG() {
	if m.dag.Nodes != nil {
		m.hash = m.dag.Hash()
		m.dag = graph.TaskDAG{}
	}
}

// NumNodes returns the mapped DAG's node count.
func (m *Mapping) NumNodes() int { return m.nodes }

// NumEdges returns the mapped DAG's edge count.
func (m *Mapping) NumEdges() int { return m.edges }

// Algo names the algorithm that produced the assignment.
func (m *Mapping) Algo() string { return m.algo }

// Cost returns the estimated completion time in cycles.
func (m *Mapping) Cost() int64 { return m.cost }

// Assignment returns a copy of the task→context assignment, indexed by
// task ID.
func (m *Mapping) Assignment() []int {
	return append([]int(nil), m.assign...)
}

// pricer prices assignments for one (topology, DAG) pair, the one pricer
// greedy, refine and BruteForce share. Building it once — one Kahn pass —
// lays the DAG out as the flat per-node arrays the inner loops read, and
// amortizes that across the thousands of candidates a refinement pass or
// brute-force sweep prices.
//
// Pricing is incremental: the state after a prefix order[:p] of the
// canonical order — each context's free time and each prefix node's finish
// time — does not depend on how the nodes from p on are assigned, so a
// candidate that changes only those nodes resumes from the prefix state
// instead of re-running it (resume, snapshot, restore).
//
// Pricing is also bounded from below: a node's tail is its longest path of
// transfers and work to the end of the schedule, and no schedule ends
// before a node's finish plus its tail, since every successor starts no
// earlier than its data arrives. A node's tail depends only on its own
// context and its descendants', which all come after it in the order, so
// tails computed for one assignment (tails) hold, from some position on,
// for every candidate that changes only nodes before that position.
type pricer struct {
	t       *topo.Topology
	order   []int    // canonical topological order
	pos     []int    // per node: its index in order
	work    []int64  // per node: compute cycles
	inOff   []int    // node v's in-edges are in[inOff[v]:inOff[v+1]]
	in      []inEdge // in-edges grouped by head, in edge order
	succOff []int    // node v's successors are succ[succOff[v]:succOff[v+1]]
	succ    []int    // in edge order (graph.TaskDAG.TopoLayout's layout)
	finish  []int64  // scratch, indexed by node
	free    []int64  // scratch, indexed by context: when it next idles
	snap    []int64  // free as snapshot left it, for restore
	tail    []int64  // per node: its tail under the assignment tails last saw

	// Move candidates refine priced, and those it counted without pricing
	// because a twin on the same socket was priced (see refine).
	priced, skipped int
}

// inEdge is one in-edge of a node: its tail and its cost in cache lines,
// ceil(volume/CacheLine).
type inEdge struct {
	from  int
	lines int64
}

func newSim(t *topo.Topology, d *graph.TaskDAG) (*pricer, error) {
	order, succOff, succ, err := d.TopoLayout()
	if err != nil {
		return nil, err
	}
	n, nCtx := len(d.Nodes), t.NumHWContexts()
	// One array of ints and one of times, cut into the per-node and
	// per-context slices.
	ints := make([]int, 2*n+1)
	times := make([]int64, 3*n+2*nCtx)
	s := &pricer{
		t:       t,
		order:   order,
		pos:     ints[:n],
		work:    times[:n],
		inOff:   ints[n:],
		in:      make([]inEdge, len(d.Edges)),
		succOff: succOff,
		succ:    succ,
		finish:  times[n : 2*n],
		tail:    times[2*n : 3*n],
		free:    times[3*n : 3*n+nCtx],
		snap:    times[3*n+nCtx:],
	}
	for i, v := range order {
		s.pos[v] = i
	}
	for v, node := range d.Nodes {
		s.work[v] = node.Work
	}
	// Counting sort by head: count into inOff[v], turn the counts into
	// bucket ends, then place the edges back to front, so each bucket
	// keeps edge order and inOff[v] ends at the bucket's start.
	for _, e := range d.Edges {
		s.inOff[e.To]++
	}
	for v := 1; v <= n; v++ {
		s.inOff[v] += s.inOff[v-1]
	}
	for i := len(d.Edges) - 1; i >= 0; i-- {
		e := d.Edges[i]
		s.inOff[e.To]--
		s.in[s.inOff[e.To]] = inEdge{from: e.From, lines: (e.Volume + CacheLine - 1) / CacheLine}
	}
	return s, nil
}

// inEdges returns node v's in-edges.
func (s *pricer) inEdges(v int) []inEdge { return s.in[s.inOff[v]:s.inOff[v+1]] }

// succs returns node v's successors.
func (s *pricer) succs(v int) []int { return s.succ[s.succOff[v]:s.succOff[v+1]] }

// cost prices an assignment: tasks run in canonical topological order,
// each starting at max(its context's free time, latest predecessor data
// arrival) where data from a different context arrives comm-cost cycles
// after the predecessor finishes. Returns the makespan — or, once the
// makespan reaches bound, a partial makespan that is at least bound, which
// a caller accepting only costs below bound rejects all the same
// (math.MaxInt64 prices in full).
func (s *pricer) cost(assign []int, bound int64) int64 {
	clear(s.free)
	return s.resume(assign, 0, len(s.order), 0, bound)
}

// resume prices order[p:] on top of the state after order[:p], whose
// makespan is mk: the caller guarantees that free holds that state for
// every context order[p:] runs on, and finish for every node before p. The
// bound cut-off is cost's, and from position q on a node's finish plus its
// tail cuts off too: the caller also guarantees that tail holds, for every
// node from q on, its tail under assign.
func (s *pricer) resume(assign []int, p, q int, mk, bound int64) int64 {
	if mk = s.run(assign, s.order[p:q], nil, mk, bound); mk >= bound {
		return mk
	}
	return s.run(assign, s.order[q:], s.tail, mk, bound)
}

// snapshot prices order[:p] from an empty machine, saves the resulting
// free times for restore and returns the prefix makespan. The saved state
// stays valid while no node of order[:p] changes context.
func (s *pricer) snapshot(assign []int, p int) int64 {
	clear(s.free)
	mk := s.run(assign, s.order[:p], nil, 0, math.MaxInt64)
	copy(s.snap, s.free)
	return mk
}

// restore resets free to the last snapshot, ready for the next resume.
func (s *pricer) restore() { copy(s.free, s.snap) }

// run is the list-scheduling loop of cost, resume and snapshot over nodes,
// a slice of the order. With tails (indexed by node), a node whose finish
// plus tail reaches bound ends the run too, returning that lower bound.
func (s *pricer) run(assign, nodes []int, tails []int64, mk, bound int64) int64 {
	free, finish := s.free, s.finish
	for _, v := range nodes {
		c := assign[v]
		start := free[c]
		for _, e := range s.inEdges(v) {
			arrive := finish[e.from]
			if cu := assign[e.from]; cu != c {
				arrive += e.lines * s.t.GetLatency(cu, c)
			}
			if arrive > start {
				start = arrive
			}
		}
		fin := start + s.work[v]
		finish[v] = fin
		free[c] = fin
		if fin > mk {
			if mk = fin; mk >= bound {
				return mk
			}
		}
		if tails != nil && fin+tails[v] >= bound {
			return fin + tails[v]
		}
	}
	return mk
}

// tails fills tail for assign: a node's tail is the most, over its
// out-edges, of the transfer to the successor (none when co-located), the
// successor's work and the successor's tail; 0 for a sink. One pass
// against the order, pushing each node's path back along its in-edges.
func (s *pricer) tails(assign []int) {
	clear(s.tail)
	for i := len(s.order) - 1; i >= 0; i-- {
		w := s.order[i]
		cw, down := assign[w], s.work[w]+s.tail[w]
		for _, e := range s.inEdges(w) {
			path := down
			if cu := assign[e.from]; cu != cw {
				path += e.lines * s.t.GetLatency(cu, cw)
			}
			s.tail[e.from] = max(s.tail[e.from], path)
		}
	}
}

// Estimate prices an assignment for the given topology and DAG under the
// canonical cost model. Deterministic: same inputs, same cost, on every
// platform.
func Estimate(t *topo.Topology, d *graph.TaskDAG, assign []int) (int64, error) {
	if err := checkAssign(t, d, assign); err != nil {
		return 0, err
	}
	s, err := newSim(t, d)
	if err != nil {
		return 0, err
	}
	return s.cost(assign, math.MaxInt64), nil
}

func checkAssign(t *topo.Topology, d *graph.TaskDAG, assign []int) error {
	if len(assign) != len(d.Nodes) {
		return fmt.Errorf("taskmap: assignment has %d entries for %d tasks", len(assign), len(d.Nodes))
	}
	n := t.NumHWContexts()
	for v, c := range assign {
		if c < 0 || c >= n {
			return fmt.Errorf("taskmap: task %d assigned to context %d of %d", v, c, n)
		}
	}
	return nil
}

// candidates resolves Options.Ctxs to a sorted duplicate-free slice.
func candidates(t *topo.Topology, opt Options) ([]int, error) {
	n := t.NumHWContexts()
	if len(opt.Ctxs) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	ctxs := append([]int(nil), opt.Ctxs...)
	sort.Ints(ctxs)
	for i, c := range ctxs {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("taskmap: candidate context %d out of range [0,%d)", c, n)
		}
		if i > 0 && ctxs[i-1] == c {
			return nil, fmt.Errorf("taskmap: duplicate candidate context %d", c)
		}
	}
	return ctxs, nil
}

// candSet is a Map's candidate contexts, ascending, and the same contexts
// grouped by socket. The topology index holds one latency per socket pair:
// from a context on socket A, every context on a socket B ≠ A is at the
// socket matrix's entry for (A, B). So to a task none of whose neighbours
// is on a socket, that socket's candidates differ only in their free times
// (greedy), and its idle ones not at all (refine).
type candSet struct {
	ctxs    []int // ascending
	grouped []int // ctxs grouped by socket, ascending within each socket
	off     []int // socket s's candidates are grouped[off[s]:off[s+1]]
	sock    []int // per context ID: its socket (set for candidates only)
}

// groupBySocket builds the candSet of the sorted candidates ctxs: a
// counting sort by socket, back to front so each socket's run stays
// ascending.
func groupBySocket(t *topo.Topology, ctxs []int) candSet {
	nS := t.NumSockets()
	buf := make([]int, len(ctxs)+nS+1+t.NumHWContexts())
	cs := candSet{
		ctxs:    ctxs,
		grouped: buf[:len(ctxs)],
		off:     buf[len(ctxs) : len(ctxs)+nS+1],
		sock:    buf[len(ctxs)+nS+1:],
	}
	all := t.Contexts()
	for _, c := range ctxs {
		sk := all[c].Socket.ID
		cs.sock[c] = sk
		cs.off[sk]++
	}
	for sk := 1; sk <= nS; sk++ {
		cs.off[sk] += cs.off[sk-1]
	}
	for i := len(ctxs) - 1; i >= 0; i-- {
		sk := cs.sock[ctxs[i]]
		cs.off[sk]--
		cs.grouped[cs.off[sk]] = ctxs[i]
	}
	return cs
}

// priorities fills pri with the AMTHA-style list-scheduling priority per
// task: its compute weight plus the communication it still owes its
// successors (in cache-line·max-latency cycles, so compute and comm are
// commensurate).
func priorities(s *pricer, pri []int64) {
	maxLat := s.t.MaxLatency()
	if maxLat <= 0 {
		maxLat = 1
	}
	copy(pri, s.work)
	for _, e := range s.in {
		pri[e.from] += e.lines * maxLat
	}
}

// greedy runs the list scheduler over the candidate contexts and returns
// the assignment. Decisions replay the simulation that cost runs, but in
// priority order and on the pricer's scratch; the returned assignment is
// finally priced with the canonical cost so greedy, refined and
// brute-force costs are always comparable.
//
// A task goes to the candidate where it starts earliest, ties to the
// lowest context ID; its work is the same everywhere, so that is where it
// finishes earliest. Each socket S's best candidate is found on its own.
// The data of an in-edge whose tail runs on another socket reaches every
// candidate of S at once: the tail's finish plus the edge's lines times
// the socket matrix's entry. So all of that data is in at one time A_S,
// and no candidate of S starts before it; a socket whose A_S is past the
// best start found so far cannot win and is skipped. Then:
//
//   - On a socket that hosts one of the task's in-edge tails, latencies
//     differ within the socket. A start row begins at the later of each
//     candidate's free time and A_S, and each in-edge from the socket
//     folds its data's arrival into it (topo.FoldArrivals: 0 on the
//     diagonal, so a co-located tail adds no transfer), which also finds
//     the socket's earliest start.
//   - On any other socket a candidate starts at max(free, A_S). The
//     socket's best is the lowest-ID candidate with free ≤ A_S, which
//     starts at A_S, or else the earliest-free one.
func greedy(s *pricer, cs *candSet) []int {
	n, nS := len(s.work), len(cs.off)-1
	// The priorities and the start rows share one array.
	times := make([]int64, n+len(cs.grouped))
	pri, start := times[:n], times[n:]
	priorities(s, pri)
	assign := make([]int, n)
	ints := make([]int, 2*n)
	indeg, ready := ints[:n], ints[n:n]
	for v := range assign {
		assign[v] = -1
		if indeg[v] = s.inOff[v+1] - s.inOff[v]; indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	finish, free := s.finish, s.free
	clear(free)
	for len(ready) > 0 {
		// Highest priority first, ties to the lowest task ID.
		next := 0
		for i := 1; i < len(ready); i++ {
			v, b := ready[i], ready[next]
			if pri[v] > pri[b] || (pri[v] == pri[b] && v < b) {
				next = i
			}
		}
		v := ready[next]
		ready = append(ready[:next], ready[next+1:]...)

		in := s.inEdges(v)
		best, earliest := -1, int64(math.MaxInt64)
		for sk := 0; sk < nS; sk++ {
			lo, hi := cs.off[sk], cs.off[sk+1]
			if lo == hi {
				continue
			}
			// The data of in-edges from other sockets is on all of sk's
			// candidates at one time.
			at, host := int64(math.MinInt64), false
			for _, e := range in {
				if su := cs.sock[assign[e.from]]; su != sk {
					at = max(at, finish[e.from]+e.lines*s.t.SocketLatency(su, sk))
				} else {
					host = true
				}
			}
			if best >= 0 && at > earliest {
				continue
			}
			group, c := cs.grouped[lo:hi], -1
			if host {
				row := start[lo:hi]
				for i, x := range group {
					row[i] = max(free[x], at)
				}
				i := 0
				for _, e := range in {
					if cs.sock[assign[e.from]] == sk {
						i = s.t.FoldArrivals(assign[e.from], finish[e.from], e.lines, group, row)
					}
				}
				c, at = group[i], row[i]
			} else {
				for _, x := range group {
					if free[x] <= at {
						c = x
						break
					}
				}
				if c < 0 {
					c, at = group[0], free[group[0]]
					for _, x := range group[1:] {
						if free[x] < at {
							c, at = x, free[x]
						}
					}
				}
			}
			if best < 0 || at < earliest || (at == earliest && c < best) {
				best, earliest = c, at
			}
		}
		fin := earliest + s.work[v]
		assign[v] = best
		finish[v] = fin
		free[best] = fin

		for _, u := range s.succs(v) {
			if indeg[u]--; indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return assign
}

// Map computes a task→context mapping for the DAG on the topology:
// greedy list scheduling, then (with a positive RefineBudget) a bounded
// hill-climb. The result is byte-stable for fixed inputs. ctx cancels
// between refinement rounds.
func Map(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt Options) (*Mapping, error) {
	if t == nil {
		return nil, fmt.Errorf("taskmap: nil topology")
	}
	s, err := newSim(t, d)
	if err != nil {
		return nil, err
	}
	ctxs, err := candidates(t, opt)
	if err != nil {
		return nil, err
	}
	cs := groupBySocket(t, ctxs)
	assign := greedy(s, &cs)
	cost := s.cost(assign, math.MaxInt64)
	// Earliest-finish list scheduling is myopic about downstream
	// communication: on comm-dominant DAGs it spreads tasks whose children
	// then pay cross-context transfers. Serial execution on one context
	// always prices at exactly the total work, so keep whichever the
	// canonical model says is cheaper — that bounds greedy at 1x serial
	// while preserving EFT's wins on compute-parallel DAGs.
	serial := make([]int, len(d.Nodes))
	for i := range serial {
		serial[i] = ctxs[0]
	}
	if sc := s.cost(serial, cost); sc < cost {
		assign, cost = serial, sc
	}
	algo := "greedy"
	if opt.RefineBudget > 0 {
		assign, cost, err = refine(ctx, s, &cs, assign, cost, opt.RefineBudget)
		if err != nil {
			return nil, err
		}
		algo = "greedy+refine"
	}
	return newMapping(t, d, algo, cost, assign), nil
}

// Reconstruct rebuilds a Mapping from persisted fields — the spool
// sidecar / export interchange path. The recorded cost is trusted, not
// recomputed (the origin priced it; edges must serve it byte-identically).
func Reconstruct(t *topo.Topology, name string, hash uint64, nodes, edges int, algo string, cost int64, assign []int) (*Mapping, error) {
	if t == nil {
		return nil, fmt.Errorf("taskmap: nil topology")
	}
	if nodes <= 0 || len(assign) != nodes {
		return nil, fmt.Errorf("taskmap: assignment has %d entries for %d tasks", len(assign), nodes)
	}
	if edges < 0 {
		return nil, fmt.Errorf("taskmap: negative edge count %d", edges)
	}
	if cost < 0 {
		return nil, fmt.Errorf("taskmap: negative cost %d", cost)
	}
	n := t.NumHWContexts()
	for v, c := range assign {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("taskmap: task %d assigned to context %d of %d", v, c, n)
		}
	}
	return &Mapping{
		t:      t,
		name:   name,
		hash:   hash,
		nodes:  nodes,
		edges:  edges,
		algo:   algo,
		cost:   cost,
		assign: append([]int(nil), assign...),
	}, nil
}
