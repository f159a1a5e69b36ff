package taskmap

// The mapper as it was before pricing became incremental: the verbatim
// pre-change pricer, greedy, refine, Map and BruteForce, renamed with a ref
// prefix.
// Kept as the reference the incremental mapper is property-tested against
// (TestMapMatchesReference), like topo's getLatencyWalk and place's
// powerOrderScan. Only graph.TaskDAG.Preds, deleted with the change, is
// inlined as refPreds.

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/topo"
)

// refPreds is the deleted graph.TaskDAG.Preds: per node, the incoming
// edges as indexes into Edges.
func refPreds(d *graph.TaskDAG) [][]int {
	preds := make([][]int, len(d.Nodes))
	for i, e := range d.Edges {
		preds[e.To] = append(preds[e.To], i)
	}
	return preds
}

// refPricer prices assignments for one (topology, DAG) pair. Building it once
// amortizes the Kahn order and predecessor index across the thousands of
// Estimate calls a refinement pass or brute-force sweep makes.
type refPricer struct {
	t      *topo.Topology
	d      *graph.TaskDAG
	order  []int   // canonical topological order
	preds  [][]int // per node: incoming edge indexes
	lines  []int64 // per edge: ceil(volume/CacheLine)
	finish []int64 // scratch, indexed by node
	free   []int64 // scratch, indexed by context
}

func refNewSim(t *topo.Topology, d *graph.TaskDAG) (*refPricer, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	lines := make([]int64, len(d.Edges))
	for i, e := range d.Edges {
		lines[i] = (e.Volume + CacheLine - 1) / CacheLine
	}
	return &refPricer{
		t:      t,
		d:      d,
		order:  order,
		preds:  refPreds(d),
		lines:  lines,
		finish: make([]int64, len(d.Nodes)),
		free:   make([]int64, t.NumHWContexts()),
	}, nil
}

// cost prices an assignment: tasks run in canonical topological order,
// each starting at max(its context's free time, latest predecessor data
// arrival) where data from a different context arrives comm-cost cycles
// after the predecessor finishes. Returns the makespan.
func (s *refPricer) cost(assign []int) int64 {
	for i := range s.free {
		s.free[i] = 0
	}
	var makespan int64
	for _, v := range s.order {
		c := assign[v]
		start := s.free[c]
		for _, ei := range s.preds[v] {
			e := s.d.Edges[ei]
			arrive := s.finish[e.From]
			if cu := assign[e.From]; cu != c {
				arrive += s.lines[ei] * s.t.GetLatency(cu, c)
			}
			if arrive > start {
				start = arrive
			}
		}
		fin := start + s.d.Nodes[v].Work
		s.finish[v] = fin
		s.free[c] = fin
		if fin > makespan {
			makespan = fin
		}
	}
	return makespan
}

// refPriorities computes the AMTHA-style list-scheduling priority per task:
// its compute weight plus the communication it still owes its successors
// (in cache-line·max-latency cycles, so compute and comm are commensurate).
func refPriorities(t *topo.Topology, d *graph.TaskDAG) []int64 {
	maxLat := t.MaxLatency()
	if maxLat <= 0 {
		maxLat = 1
	}
	pri := make([]int64, len(d.Nodes))
	for i, n := range d.Nodes {
		pri[i] = n.Work
	}
	for _, e := range d.Edges {
		pri[e.From] += (e.Volume + CacheLine - 1) / CacheLine * maxLat
	}
	return pri
}

// greedy runs the list scheduler over the candidate contexts and returns
// the assignment. Decisions replay the same simulation Estimate uses, but
// in priority order; the returned assignment is finally priced with the
// canonical Estimate so greedy, refined and brute-force costs are always
// comparable.
func refGreedy(t *topo.Topology, d *graph.TaskDAG, ctxs []int) []int {
	n := len(d.Nodes)
	pri := refPriorities(t, d)
	indeg := make([]int, n)
	for _, e := range d.Edges {
		indeg[e.To]++
	}
	preds := refPreds(d)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	finish := make([]int64, n)
	free := make([]int64, t.NumHWContexts())
	ready := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
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

		// Earliest-finish context, ties to the lowest context ID.
		bestCtx, bestFin := -1, int64(0)
		for _, c := range ctxs {
			start := free[c]
			for _, ei := range preds[v] {
				e := d.Edges[ei]
				arrive := finish[e.From]
				if cu := assign[e.From]; cu != c {
					arrive += (e.Volume + CacheLine - 1) / CacheLine * t.GetLatency(cu, c)
				}
				if arrive > start {
					start = arrive
				}
			}
			fin := start + d.Nodes[v].Work
			if bestCtx < 0 || fin < bestFin {
				bestCtx, bestFin = c, fin
			}
		}
		assign[v] = bestCtx
		finish[v] = bestFin
		free[bestCtx] = bestFin

		for _, e := range d.Edges {
			if e.From == v {
				if indeg[e.To]--; indeg[e.To] == 0 {
					ready = append(ready, e.To)
				}
			}
		}
	}
	return assign
}

// Map computes a task→context mapping for the DAG on the topology:
// greedy list scheduling, then (with a positive RefineBudget) a bounded
// hill-climb. The result is byte-stable for fixed inputs. ctx cancels
// between refinement rounds.
func refMap(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt Options) (*Mapping, error) {
	if t == nil {
		return nil, fmt.Errorf("taskmap: nil topology")
	}
	s, err := refNewSim(t, d)
	if err != nil {
		return nil, err
	}
	ctxs, err := candidates(t, opt)
	if err != nil {
		return nil, err
	}
	assign := refGreedy(t, d, ctxs)
	cost := s.cost(assign)
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
	if sc := s.cost(serial); sc < cost {
		assign, cost = serial, sc
	}
	algo := "greedy"
	if opt.RefineBudget > 0 {
		assign, cost, err = refRefine(ctx, s, ctxs, assign, cost, opt.RefineBudget)
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

// refine hill-climbs the assignment: rounds of single-task moves then
// pairwise swaps, scanned in ascending (task, context) order, accepting
// strict improvements immediately. budget bounds the total number of
// candidate assignments priced; the climb also stops at a local optimum
// (a full round with no improvement). Fully deterministic.
func refRefine(ctx context.Context, s *refPricer, ctxs []int, assign []int, cost int64, budget int) ([]int, int64, error) {
	cur := append([]int(nil), assign...)
	n := len(cur)
	for budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		improved := false

		// Single-task moves.
	moves:
		for v := 0; v < n; v++ {
			for _, c := range ctxs {
				if c == cur[v] {
					continue
				}
				if budget <= 0 {
					break moves
				}
				budget--
				old := cur[v]
				cur[v] = c
				if nc := s.cost(cur); nc < cost {
					cost = nc
					improved = true
				} else {
					cur[v] = old
				}
			}
		}

		// Pairwise swaps between tasks on different contexts.
	swaps:
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if cur[a] == cur[b] {
					continue
				}
				if budget <= 0 {
					break swaps
				}
				budget--
				cur[a], cur[b] = cur[b], cur[a]
				if nc := s.cost(cur); nc < cost {
					cost = nc
					improved = true
				} else {
					cur[a], cur[b] = cur[b], cur[a]
				}
			}
		}

		if !improved {
			break
		}
	}
	return cur, cost, nil
}

// refBruteForce is the pre-change BruteForce: it enumerates every assignment of tasks to the candidate
// contexts and returns the cheapest under Estimate — the optimality
// reference for the property tests. Errors when the search space exceeds
// bruteBudget. Ties resolve to the lexicographically smallest assignment
// (in candidate order), so the result is deterministic. ctx cancels the
// sweep between assignments.
func refBruteForce(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt Options) (*Mapping, error) {
	if t == nil {
		return nil, fmt.Errorf("taskmap: nil topology")
	}
	s, err := refNewSim(t, d)
	if err != nil {
		return nil, err
	}
	ctxs, err := candidates(t, opt)
	if err != nil {
		return nil, err
	}
	n := len(d.Nodes)
	total := 1
	for i := 0; i < n; i++ {
		total *= len(ctxs)
		if total > bruteBudget {
			return nil, fmt.Errorf("taskmap: brute force over %d^%d assignments exceeds budget %d", len(ctxs), n, bruteBudget)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	idx := make([]int, n)    // per task: index into ctxs
	assign := make([]int, n) // per task: context ID
	for v := range assign {
		assign[v] = ctxs[0]
	}
	best := append([]int(nil), assign...)
	bestCost := s.cost(assign)
	for i := 1; i < total; i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Odometer increment over candidate indexes: enumeration is
		// lexicographic, so the first minimum seen is the smallest tie.
		for p := n - 1; p >= 0; p-- {
			idx[p]++
			if idx[p] < len(ctxs) {
				assign[p] = ctxs[idx[p]]
				break
			}
			idx[p] = 0
			assign[p] = ctxs[0]
		}
		if c := s.cost(assign); c < bestCost {
			bestCost = c
			copy(best, assign)
		}
	}
	return &Mapping{
		t:      t,
		name:   d.Name,
		hash:   d.Hash(),
		nodes:  n,
		edges:  len(d.Edges),
		algo:   "brute",
		cost:   bestCost,
		assign: best,
	}, nil
}
