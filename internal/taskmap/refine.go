package taskmap

import "context"

// refine hill-climbs the assignment: rounds of single-task moves then
// pairwise swaps, scanned in ascending (task, context) order, accepting
// strict improvements immediately. budget bounds the total number of
// candidate assignments priced; the climb also stops at a local optimum
// (a full round with no improvement). Fully deterministic.
//
// Every candidate is priced against the incumbent cost as its bound, since
// only a strict improvement is accepted. A move of task v changes nothing
// before v's position in the order, so the prefix is priced once per task
// (snapshot) and each candidate context resumes from there; the prefix does
// not contain v, so accepting a move keeps the snapshot valid. The budget
// counts every candidate — priced in full, cut off, or skipped as a twin
// (below) — so the climb visits the same sequence as pricing each
// candidate in full.
//
// A candidate is also cut off once a node after every changed task
// finishes so late that its tail under the incumbent reaches the bound:
// neither that node's context nor any of its descendants' changed, so its
// tail is the same under the candidate, which cannot improve. The
// incumbent's tails are computed once and again after each accepted
// candidate, which is rare next to the candidates priced.
//
// Moves to a socket's idle contexts are priced once. Say v moves to an
// idle candidate c (no task on it) on a socket S that hosts none of v's
// predecessors and successors. Then c is free when v's turn comes, every
// transfer into and out of v crosses sockets at the socket matrix's entry
// for S, and no other task runs on c: the schedule is the same for every
// such candidate of S. So once one of them is priced and rejected, the
// rest of S's are counted against the budget without pricing them
// (memo[S] == v+1), until the next candidate is accepted and changes the
// incumbent.
func refine(ctx context.Context, s *pricer, cs *candSet, assign []int, cost int64, budget int) ([]int, int64, error) {
	cur := append([]int(nil), assign...)
	n, nS := len(cur), len(cs.off)-1
	ints := make([]int, 2*nS+len(s.free))
	// near[S] == stamp marks the sockets of the neighbours of the task
	// being moved; load[c] counts the incumbent's tasks on context c.
	memo, near, load := ints[:nS], ints[nS:2*nS], ints[2*nS:]
	for _, c := range cur {
		load[c]++
	}
	stamp := 0
	s.tails(cur)
	for budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		improved := false

		// Single-task moves.
	moves:
		for v := 0; v < n; v++ {
			stamp++
			for _, e := range s.inEdges(v) {
				near[cs.sock[cur[e.from]]] = stamp
			}
			for _, u := range s.succs(v) {
				near[cs.sock[cur[u]]] = stamp
			}
			p := s.pos[v]
			mk := s.snapshot(cur, p)
			for _, c := range cs.ctxs {
				if c == cur[v] {
					continue
				}
				if budget <= 0 {
					break moves
				}
				budget--
				sk := cs.sock[c]
				twin := load[c] == 0 && near[sk] != stamp
				if twin && memo[sk] == v+1 {
					s.skipped++
					continue
				}
				s.priced++
				old := cur[v]
				cur[v] = c
				s.restore()
				if nc := s.resume(cur, p, p+1, mk, cost); nc < cost {
					cost = nc
					improved = true
					s.tails(cur)
					load[old]--
					load[c]++
					clear(memo)
				} else {
					cur[v] = old
					if twin {
						memo[sk] = v + 1
					}
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
				clear(s.free) // priced from an empty machine, as cost does
				if nc := s.resume(cur, 0, max(s.pos[a], s.pos[b])+1, 0, cost); nc < cost {
					cost = nc
					improved = true
					s.tails(cur)
					clear(memo)
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
