package taskmap

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/topo"
)

// bruteBudget caps the assignments BruteForce may enumerate
// (len(ctxs)^nodes). ~4M keeps the reference mapper test-speed even on
// 8-node DAGs over 4 candidate contexts.
const bruteBudget = 1 << 22

// BruteForce enumerates every assignment of tasks to the candidate
// contexts and returns the cheapest under Estimate — the optimality
// reference for the property tests. Errors when the search space exceeds
// bruteBudget. Ties resolve to the lexicographically smallest assignment
// (in candidate order), so the result is deterministic. ctx cancels the
// sweep between assignments.
func BruteForce(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt Options) (*Mapping, error) {
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
	bestCost := s.cost(assign, math.MaxInt64)
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
		// Only a strict improvement counts, so the incumbent is the bound.
		if c := s.cost(assign, bestCost); c < bestCost {
			bestCost = c
			copy(best, assign)
		}
	}
	return newMapping(t, d, "brute", bestCost, best), nil
}
