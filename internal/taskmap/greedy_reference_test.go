package taskmap

// The greedy list scheduler as it was before candidates were grouped by
// socket, verbatim but for its name: every task folds each in-edge's
// arrivals over every candidate context. Kept as the reference greedy is
// tested against (TestGreedyMatchesReference); refGreedy in
// reference_test.go is the older per-pair form of the same scheduler.

// foldGreedy runs the list scheduler over the candidate contexts and
// returns the assignment. Decisions replay the simulation that cost runs,
// but in priority order and on the pricer's scratch; the returned
// assignment is finally priced with the canonical cost so greedy, refined
// and brute-force costs are always comparable.
//
// A task's earliest start is computed for all candidates at once: the
// start row begins at each candidate's free time, and each in-edge folds
// its data's arrival from its tail's context into the row in one pass over
// the candidates (topo.FoldArrivals: 0 on the diagonal, so a co-located
// tail adds no transfer), which also finds the earliest start. The task's
// work is the same on every candidate, so the earliest start is the
// earliest finish.
func foldGreedy(s *pricer, ctxs []int) []int {
	n := len(s.work)
	pri := make([]int64, n)
	priorities(s, pri)
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

		// Earliest finish, ties to the lowest context ID (ctxs ascends).
		for i, c := range ctxs {
			start[i] = free[c]
		}
		best := 0
		if in := s.inEdges(v); len(in) == 0 {
			for i := range start {
				if start[i] < start[best] {
					best = i
				}
			}
		} else {
			for _, e := range in {
				best = s.t.FoldArrivals(assign[e.from], finish[e.from], e.lines, ctxs, start)
			}
		}
		c, fin := ctxs[best], start[best]+s.work[v]
		assign[v] = c
		finish[v] = fin
		free[c] = fin

		for _, u := range s.succ[s.succOff[v]:s.succOff[v+1]] {
			if indeg[u]--; indeg[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return assign
}
