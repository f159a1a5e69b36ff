package exec

import (
	"slices"

	"repro/internal/place"
	"repro/internal/topo"
)

// ThreadCandidates is the thread-count sweep of the Figure 10-12 models: a
// socket's cores, half the cores, all cores, half again as many, and every
// context — in that order, without repeats.
func ThreadCandidates(t *topo.Topology) []int {
	c, n := t.NumCores(), t.NumHWContexts()
	var out []int
	for _, v := range []int{c / t.NumSockets(), c / 2, c, c + c/2, n} {
		if v >= 1 && v <= n && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// Candidate is one evaluated point of a Best sweep.
type Candidate struct {
	Policy    place.Policy
	Threads   int
	Placement *place.Placement
	Report
}

// Best places wl under every policy at every thread count (0 = all the
// policy allows), policies outermost, and returns the candidate prefer
// keeps: prefer(c, best) reports whether c replaces the best so far. A nil
// prefer keeps the candidate with strictly fewest cycles, so ties go to the
// earlier one.
func Best(t *topo.Topology, policies []place.Policy, threads []int, wl Workload,
	prefer func(c, best *Candidate) bool) (Candidate, error) {
	if prefer == nil {
		prefer = func(c, best *Candidate) bool { return c.Cycles < best.Cycles }
	}
	var best Candidate
	for _, pol := range policies {
		for _, n := range threads {
			pl, err := place.New(t, pol, place.Options{NThreads: n})
			if err != nil {
				return Candidate{}, err
			}
			r, err := Estimate(t, pl.Contexts(), wl)
			if err != nil {
				return Candidate{}, err
			}
			c := Candidate{Policy: pol, Threads: n, Placement: pl, Report: r}
			if best.Placement == nil || prefer(&c, &best) {
				best = c
			}
		}
	}
	return best, nil
}
