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
// counts every candidate priced, cut off or not, so the climb visits the
// same sequence as pricing each candidate in full.
//
// A candidate is also cut off once a node after every changed task
// finishes so late that its tail under the incumbent reaches the bound:
// neither that node's context nor any of its descendants' changed, so its
// tail is the same under the candidate, which cannot improve. The
// incumbent's tails are computed once and again after each accepted
// candidate, which is rare next to the candidates priced.
func refine(ctx context.Context, s *pricer, ctxs []int, assign []int, cost int64, budget int) ([]int, int64, error) {
	cur := append([]int(nil), assign...)
	n := len(cur)
	s.tails(cur)
	for budget > 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		improved := false

		// Single-task moves.
	moves:
		for v := 0; v < n; v++ {
			p := s.pos[v]
			mk := s.snapshot(cur, p)
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
				s.restore()
				if nc := s.resume(cur, p, p+1, mk, cost); nc < cost {
					cost = nc
					improved = true
					s.tails(cur)
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
				clear(s.free) // priced from an empty machine, as cost does
				if nc := s.resume(cur, 0, max(s.pos[a], s.pos[b])+1, 0, cost); nc < cost {
					cost = nc
					improved = true
					s.tails(cur)
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
