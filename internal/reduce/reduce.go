// Package reduce builds topology-aware cross-socket reduction trees
// (Section 5 of the MCTOP paper).
//
// In fork-join computations the local results of each socket must be
// reduced to one; when those results are sizable, who merges with whom and
// where the survivor lives dominates the reduction's cost. The policy
// implemented here follows the paper: (i) the final destination socket is
// the one that needs the data, and (ii) at each level of the binary tree,
// sockets are paired so that the bandwidth between pair members is
// maximized. A topology-agnostic adjacent-pairing baseline is included for
// the ablation benchmarks.
package reduce

import (
	"fmt"

	"repro/internal/topo"
)

// Step is one pairwise merge: socket From's data is merged into socket To,
// and To survives to the next round.
type Step struct {
	From, To int
}

// Plan is a reduction tree: rounds of parallel pairwise merges ending at
// Dest.
type Plan struct {
	Dest   int
	Rounds [][]Step
}

// Tree builds a bandwidth-maximizing reduction plan over the given sockets,
// rooted at dest. It greedily pairs the sockets with the highest
// interconnect bandwidth (falling back to lowest latency when bandwidths
// are unknown); within a pair the survivor is the socket closer to dest —
// dest itself always survives.
func Tree(t *topo.Topology, sockets []int, dest int) (Plan, error) {
	if len(sockets) == 0 {
		return Plan{}, fmt.Errorf("reduce: no sockets")
	}
	seen := map[int]bool{}
	hasDest := false
	for _, s := range sockets {
		if t.Socket(s) == nil {
			return Plan{}, fmt.Errorf("reduce: socket %d out of range", s)
		}
		if seen[s] {
			return Plan{}, fmt.Errorf("reduce: socket %d listed twice", s)
		}
		seen[s] = true
		if s == dest {
			hasDest = true
		}
	}
	if !hasDest {
		return Plan{}, fmt.Errorf("reduce: destination %d not among sockets %v", dest, sockets)
	}

	plan := Plan{Dest: dest}
	active := append([]int(nil), sockets...)
	for len(active) > 1 {
		var round []Step
		paired := map[int]bool{}
		var next []int
		// Greedy max-bandwidth matching over the remaining active sockets.
		for {
			bestA, bestB := -1, -1
			bestScore := -1.0
			for i := 0; i < len(active); i++ {
				a := active[i]
				if paired[a] {
					continue
				}
				for j := i + 1; j < len(active); j++ {
					b := active[j]
					if paired[b] {
						continue
					}
					score := pairScore(t, a, b)
					if score > bestScore {
						bestScore = score
						bestA, bestB = a, b
					}
				}
			}
			if bestA == -1 {
				break
			}
			paired[bestA], paired[bestB] = true, true
			surv, src := survivor(t, bestA, bestB, dest)
			round = append(round, Step{From: src, To: surv})
			next = append(next, surv)
		}
		// An odd socket passes through to the next round.
		for _, s := range active {
			if !paired[s] {
				next = append(next, s)
			}
		}
		plan.Rounds = append(plan.Rounds, round)
		active = next
	}
	if active[0] != dest {
		// The greedy survivor rule guarantees dest survives every pairing
		// it participates in; if dest never got paired last, add a final
		// move.
		plan.Rounds = append(plan.Rounds, []Step{{From: active[0], To: dest}})
	}
	return plan, nil
}

// pairScore ranks a socket pair: interconnect bandwidth when measured,
// otherwise inverse latency.
func pairScore(t *topo.Topology, a, b int) float64 {
	if bw := t.SocketBW(a, b); bw > 0 {
		return bw
	}
	lat := t.SocketLatency(a, b)
	if lat <= 0 {
		return 0
	}
	return 1e6 / float64(lat)
}

// survivor picks which pair member absorbs the other: dest always wins,
// otherwise the member closer (lower latency) to dest.
func survivor(t *topo.Topology, a, b, dest int) (surv, src int) {
	if a == dest {
		return a, b
	}
	if b == dest {
		return b, a
	}
	if t.SocketLatency(a, dest) <= t.SocketLatency(b, dest) {
		return a, b
	}
	return b, a
}

// OptimalTree searches all pairing/survivor structures for the plan with
// the minimum modeled cost (Cost) — data doubles every round, so the
// cheapest tree saves the fastest links for the heaviest, final merges,
// which the paper's per-level greedy cannot see. Exhaustive search is
// exponential in the socket count; it is intended for the machines of the
// paper (<= 8 sockets) and the merge-tree ablation benchmark.
func OptimalTree(t *topo.Topology, sockets []int, dest int, bytesPerSocket int64) (Plan, error) {
	if len(sockets) == 0 || len(sockets) > 8 {
		return Plan{}, fmt.Errorf("reduce: OptimalTree supports 1..8 sockets, got %d", len(sockets))
	}
	if _, err := Tree(t, sockets, dest); err != nil {
		return Plan{}, err // reuse input validation
	}
	type node struct {
		id    int
		bytes int64
	}
	start := make([]node, len(sockets))
	for i, s := range sockets {
		start[i] = node{s, bytesPerSocket}
	}
	var best struct {
		cost  int64
		plan  [][]Step
		found bool
	}
	var search func(alive []node, rounds [][]Step, acc int64)
	search = func(alive []node, rounds [][]Step, acc int64) {
		if best.found && acc >= best.cost {
			return
		}
		if len(alive) == 1 {
			if alive[0].id != dest {
				return
			}
			cp := make([][]Step, len(rounds))
			for i, r := range rounds {
				cp[i] = append([]Step(nil), r...)
			}
			best.cost, best.plan, best.found = acc, cp, true
			return
		}
		// Enumerate matchings of the alive set (odd element passes).
		var match func(rem []node, steps []Step, next []node, roundCost int64)
		match = func(rem []node, steps []Step, next []node, roundCost int64) {
			if len(rem) <= 1 {
				if len(rem) == 1 {
					next = append(next, rem[0])
				}
				if len(steps) == 0 {
					return
				}
				search(next, append(rounds, steps), acc+roundCost)
				return
			}
			a := rem[0]
			for j := 1; j < len(rem); j++ {
				b := rem[j]
				rest := make([]node, 0, len(rem)-2)
				rest = append(rest, rem[1:j]...)
				rest = append(rest, rem[j+1:]...)
				// Try both survivors (dest must survive).
				for _, sv := range [][2]node{{a, b}, {b, a}} {
					surv, src := sv[0], sv[1]
					if src.id == dest {
						continue
					}
					c := linkCycles(t, src.id, surv.id, src.bytes)
					rc := roundCost
					if c > rc {
						rc = c
					}
					merged := node{surv.id, surv.bytes + src.bytes}
					match(rest, append(steps, Step{From: src.id, To: surv.id}),
						append(next, merged), rc)
				}
			}
			// The odd passthrough: a sits this round out.
			if len(rem)%2 == 1 {
				match(rem[1:], steps, append(next, a), roundCost)
			}
		}
		match(alive, nil, nil, 0)
	}
	search(start, nil, 0)
	if !best.found {
		return Plan{}, fmt.Errorf("reduce: no plan found (internal error)")
	}
	return Plan{Dest: dest, Rounds: best.plan}, nil
}

// NaiveTree is the topology-agnostic baseline: adjacent pairing in list
// order, lower-id survivor, final result moved to dest. This is what a
// portable-but-blind implementation does.
func NaiveTree(t *topo.Topology, sockets []int, dest int) (Plan, error) {
	if len(sockets) == 0 {
		return Plan{}, fmt.Errorf("reduce: no sockets")
	}
	plan := Plan{Dest: dest}
	active := append([]int(nil), sockets...)
	for len(active) > 1 {
		var round []Step
		var next []int
		for i := 0; i+1 < len(active); i += 2 {
			round = append(round, Step{From: active[i+1], To: active[i]})
			next = append(next, active[i])
		}
		if len(active)%2 == 1 {
			next = append(next, active[len(active)-1])
		}
		plan.Rounds = append(plan.Rounds, round)
		active = next
	}
	if active[0] != dest {
		plan.Rounds = append(plan.Rounds, []Step{{From: active[0], To: dest}})
	}
	return plan, nil
}

// Cost models a plan's execution time in cycles for the given bytes per
// participant: rounds run serially, the pairs of a round in parallel, and
// each merge streams its bytes over the pair's interconnect path.
func Cost(t *topo.Topology, p Plan, bytesPerSocket int64) int64 {
	carried := map[int]int64{}
	var total int64
	for _, s := range t.Sockets() {
		carried[s.ID] = bytesPerSocket
	}
	for _, round := range p.Rounds {
		var worst int64
		for _, st := range round {
			cycles := linkCycles(t, st.From, st.To, carried[st.From])
			if cycles > worst {
				worst = cycles
			}
			carried[st.To] += carried[st.From]
			carried[st.From] = 0
		}
		total += worst
	}
	return total
}

// linkCycles is the time to stream bytes from one socket to another over
// their interconnect (4 GB/s when its bandwidth was not measured).
func linkCycles(t *topo.Topology, from, to int, bytes int64) int64 {
	bw := t.SocketBW(from, to)
	if bw <= 0 {
		bw = 4
	}
	return int64(float64(bytes) * t.ModelFreqGHz() / bw)
}

// Validate checks that a plan reduces every participant exactly once per
// absorption and terminates at Dest.
func (p Plan) Validate(sockets []int) error {
	alive := map[int]bool{}
	for _, s := range sockets {
		alive[s] = true
	}
	for ri, round := range p.Rounds {
		for _, st := range round {
			if !alive[st.From] || !alive[st.To] {
				return fmt.Errorf("reduce: round %d merges dead socket (%d -> %d)", ri, st.From, st.To)
			}
			if st.From == st.To {
				return fmt.Errorf("reduce: round %d merges socket %d with itself", ri, st.From)
			}
			alive[st.From] = false
		}
	}
	count := 0
	last := -1
	for s, a := range alive {
		if a {
			count++
			last = s
		}
	}
	if count != 1 || last != p.Dest {
		return fmt.Errorf("reduce: plan leaves %d sockets alive (last %d), want only dest %d", count, last, p.Dest)
	}
	return nil
}
