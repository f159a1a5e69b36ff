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
	"sort"

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
	hash   uint64 // canonical DAG hash (graph.TaskDAG.Hash)
	nodes  int
	edges  int
	algo   string
	cost   int64
	assign []int
}

// Topology returns the topology the mapping was computed against.
func (m *Mapping) Topology() *topo.Topology { return m.t }

// DAGName returns the (non-canonical) name of the mapped DAG, if any.
func (m *Mapping) DAGName() string { return m.name }

// DAGHash returns the canonical hash of the mapped DAG.
func (m *Mapping) DAGHash() uint64 { return m.hash }

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
type pricer struct {
	t       *topo.Topology
	order   []int    // canonical topological order
	pos     []int    // per node: its index in order
	work    []int64  // per node: compute cycles
	inOff   []int    // node v's in-edges are in[inOff[v]:inOff[v+1]]
	in      []inEdge // in-edges grouped by head, in edge order
	succOff []int    // node v's successors are succ[succOff[v]:succOff[v+1]]
	succ    []int
	finish  []int64 // scratch, indexed by node
	free    []int64 // scratch, indexed by context: when it next idles
	snap    []int64 // free as snapshot left it, for restore
}

// inEdge is one in-edge of a node: its tail and its cost in cache lines,
// ceil(volume/CacheLine).
type inEdge struct {
	from  int
	lines int64
}

func newSim(t *topo.Topology, d *graph.TaskDAG) (*pricer, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	n, nCtx := len(d.Nodes), t.NumHWContexts()
	s := &pricer{
		t:       t,
		order:   order,
		pos:     make([]int, n),
		work:    make([]int64, n),
		inOff:   make([]int, n+1),
		in:      make([]inEdge, len(d.Edges)),
		succOff: make([]int, n+1),
		succ:    make([]int, len(d.Edges)),
		finish:  make([]int64, n),
		free:    make([]int64, nCtx),
		snap:    make([]int64, nCtx),
	}
	for i, v := range order {
		s.pos[v] = i
	}
	for v, node := range d.Nodes {
		s.work[v] = node.Work
	}
	// Counting sort by head (in) and tail (succ): count into off[v], turn
	// the counts into bucket ends, then place the edges back to front, so
	// each bucket keeps edge order and off[v] ends at the bucket's start.
	for _, e := range d.Edges {
		s.inOff[e.To]++
		s.succOff[e.From]++
	}
	for v := 1; v <= n; v++ {
		s.inOff[v] += s.inOff[v-1]
		s.succOff[v] += s.succOff[v-1]
	}
	for i := len(d.Edges) - 1; i >= 0; i-- {
		e := d.Edges[i]
		s.inOff[e.To]--
		s.in[s.inOff[e.To]] = inEdge{from: e.From, lines: (e.Volume + CacheLine - 1) / CacheLine}
		s.succOff[e.From]--
		s.succ[s.succOff[e.From]] = e.To
	}
	return s, nil
}

// inEdges returns node v's in-edges.
func (s *pricer) inEdges(v int) []inEdge { return s.in[s.inOff[v]:s.inOff[v+1]] }

// cost prices an assignment: tasks run in canonical topological order,
// each starting at max(its context's free time, latest predecessor data
// arrival) where data from a different context arrives comm-cost cycles
// after the predecessor finishes. Returns the makespan — or, once the
// makespan reaches bound, a partial makespan that is at least bound, which
// a caller accepting only costs below bound rejects all the same
// (math.MaxInt64 prices in full).
func (s *pricer) cost(assign []int, bound int64) int64 {
	clear(s.free)
	return s.resume(assign, 0, 0, bound)
}

// resume prices order[p:] on top of the state after order[:p], whose
// makespan is mk: the caller guarantees that free holds that state for
// every context order[p:] runs on, and finish for every node before p. The
// bound cut-off is cost's.
func (s *pricer) resume(assign []int, p int, mk, bound int64) int64 {
	return s.run(assign, s.order[p:], mk, bound)
}

// snapshot prices order[:p] from an empty machine, saves the resulting
// free times for restore and returns the prefix makespan. The saved state
// stays valid while no node of order[:p] changes context.
func (s *pricer) snapshot(assign []int, p int) int64 {
	clear(s.free)
	mk := s.run(assign, s.order[:p], 0, math.MaxInt64)
	copy(s.snap, s.free)
	return mk
}

// restore resets free to the last snapshot, ready for the next resume.
func (s *pricer) restore() { copy(s.free, s.snap) }

// run is the list-scheduling loop of cost, resume and snapshot over nodes,
// a slice of the order.
func (s *pricer) run(assign, nodes []int, mk, bound int64) int64 {
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
	}
	return mk
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

// priorities computes the AMTHA-style list-scheduling priority per task:
// its compute weight plus the communication it still owes its successors
// (in cache-line·max-latency cycles, so compute and comm are commensurate).
func priorities(s *pricer) []int64 {
	maxLat := s.t.MaxLatency()
	if maxLat <= 0 {
		maxLat = 1
	}
	pri := append([]int64(nil), s.work...)
	for _, e := range s.in {
		pri[e.from] += e.lines * maxLat
	}
	return pri
}

// greedy runs the list scheduler over the candidate contexts and returns
// the assignment. Decisions replay the simulation that cost runs, but in
// priority order and on the pricer's scratch; the returned assignment is
// finally priced with the canonical cost so greedy, refined and
// brute-force costs are always comparable.
//
// A task's earliest start is computed for all candidates at once: each
// in-edge contributes one batch latency query from its tail's context
// (0 on the diagonal, so a co-located tail adds no transfer), folded into
// the start times column by column.
func greedy(s *pricer, ctxs []int) []int {
	n := len(s.work)
	pri := priorities(s)
	indeg := make([]int, n)
	assign := make([]int, n)
	ready := make([]int, 0, n)
	for v := range assign {
		assign[v] = -1
		if indeg[v] = s.inOff[v+1] - s.inOff[v]; indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	finish, free := s.finish, s.free
	clear(free)
	start := make([]int64, len(ctxs))
	lat := make([]int64, len(ctxs))
	for len(ready) > 0 {
		// Highest priority first, ties to the lowest task ID.
		best := 0
		for i := 1; i < len(ready); i++ {
			v, b := ready[i], ready[best]
			if pri[v] > pri[b] || (pri[v] == pri[b] && v < b) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)

		for i, c := range ctxs {
			start[i] = free[c]
		}
		for _, e := range s.inEdges(v) {
			f := finish[e.from]
			lat = s.t.LatenciesFrom(assign[e.from], ctxs, lat)
			for i, l := range lat {
				if arrive := f + e.lines*l; arrive > start[i] {
					start[i] = arrive
				}
			}
		}
		// Earliest finish, ties to the lowest context ID (ctxs ascends).
		w := s.work[v]
		bestCtx, bestFin := 0, start[0]+w
		for i := 1; i < len(start); i++ {
			if fin := start[i] + w; fin < bestFin {
				bestCtx, bestFin = i, fin
			}
		}
		c := ctxs[bestCtx]
		assign[v] = c
		finish[v] = bestFin
		free[c] = bestFin

		for _, u := range s.succ[s.succOff[v]:s.succOff[v+1]] {
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
	assign := greedy(s, ctxs)
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
		assign, cost, err = refine(ctx, s, ctxs, assign, cost, opt.RefineBudget)
		if err != nil {
			return nil, err
		}
		algo = "greedy+refine"
	}
	return &Mapping{
		t:      t,
		name:   d.Name,
		hash:   d.Hash(),
		nodes:  len(d.Nodes),
		edges:  len(d.Edges),
		algo:   algo,
		cost:   cost,
		assign: assign,
	}, nil
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
