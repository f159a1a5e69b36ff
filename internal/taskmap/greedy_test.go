package taskmap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topo"
)

// genShapes are the inferred generated shapes the oracles run on besides
// the goldens: a 24-context ring, a 128-context circulant and a
// 512-context mesh.
var genShapes = []string{"gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2", "gen:mesh:s16:c16:t2"}

// oracleTops loads the five goldens and infers the generated shapes.
func oracleTops(t testing.TB) []*topo.Topology {
	var tops []*topo.Topology
	for _, file := range goldenPlatformFiles {
		tops = append(tops, loadGolden(t, file))
	}
	for _, name := range genShapes {
		p, err := sim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, enriched(t, p))
	}
	return tops
}

// splitCtxs draws candidates that split sockets: each context of one
// random socket with probability 1/2, and of every other socket with
// probability 1/8, in random order (candidates sorts them). At least one
// context is drawn.
func splitCtxs(rng *rand.Rand, top *topo.Topology) []int {
	split := rng.Intn(top.NumSockets())
	var ctxs []int
	for _, c := range top.Contexts() {
		if c.Socket.ID == split && rng.Intn(2) == 0 || rng.Intn(8) == 0 {
			ctxs = append(ctxs, c.ID)
		}
	}
	if len(ctxs) == 0 {
		ctxs = append(ctxs, rng.Intn(top.NumHWContexts()))
	}
	rng.Shuffle(len(ctxs), func(i, j int) { ctxs[i], ctxs[j] = ctxs[j], ctxs[i] })
	return ctxs
}

// TestGreedyMatchesReference: grouping the candidates by socket leaves
// every greedy decision as it was. On the five goldens and the generated
// shapes, over every context, candidates that split sockets and a small
// random subset, greedy returns exactly the assignment of the pre-change
// greedy (greedy_reference_test.go), which folds every in-edge over every
// candidate. Most DAGs carry tiny works and mostly free edges
// (tinyWeights), where starts tie across sockets and the lowest ID must
// win.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, top := range oracleTops(t) {
		for trial := 0; trial < 24; trial++ {
			d := randomDAG(rng, 1+rng.Intn(48), 0.3*rng.Float64(), trial%2 == 1)
			if trial%4 != 3 {
				tinyWeights(rng, d)
			}
			for _, opt := range []Options{
				{},
				{Ctxs: splitCtxs(rng, top)},
				{Ctxs: randomCtxs(rng, top.NumHWContexts())},
			} {
				ctxs, err := candidates(top, opt)
				if err != nil {
					t.Fatal(err)
				}
				s, err := newSim(top, d)
				if err != nil {
					t.Fatal(err)
				}
				cs := groupBySocket(top, ctxs)
				got := greedy(s, &cs)
				want := foldGreedy(s, ctxs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d (%d nodes, %d edges, %d candidates):\n got %v\nwant %v",
						top.Name(), trial, len(d.Nodes), len(d.Edges), len(ctxs), got, want)
				}
			}
		}
	}
}

// TestRefineSkipsTwinMoves: on SPARC's 256 contexts, a refine pass over a
// generated layered DAG prices only some of its move candidates and counts
// the rest as twins of one already priced, and the budget counts both: the
// candidates priced and skipped add up to the budget. The answer is the
// reference mapper's. The counts are logged.
func TestRefineSkipsTwinMoves(t *testing.T) {
	top := loadGolden(t, "sparc.mctop")
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 8}, 4)
	const budget = 200
	ctxs, err := candidates(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(top, d)
	if err != nil {
		t.Fatal(err)
	}
	cs := groupBySocket(top, ctxs)
	// Map's incumbent: greedy's assignment, or all on one context if that
	// is cheaper.
	assign := greedy(s, &cs)
	cost := s.cost(assign, math.MaxInt64)
	serial := make([]int, len(assign))
	if sc := s.cost(serial, cost); sc < cost {
		assign, cost = serial, sc
	}
	cur, cost, err := refine(context.Background(), s, &cs, assign, cost, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d nodes: %d move candidates priced, %d skipped", len(d.Nodes), s.priced, s.skipped)
	if s.skipped == 0 || s.priced+s.skipped != budget {
		t.Errorf("priced %d + skipped %d move candidates, want a positive skip count and a sum of %d", s.priced, s.skipped, budget)
	}
	want, err := refMap(context.Background(), top, d, Options{RefineBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if cost != want.Cost() || !reflect.DeepEqual(cur, want.Assignment()) {
		t.Errorf("refine: cost %d %v, reference %d %v", cost, cur, want.Cost(), want.Assignment())
	}
}

// TestRefineMatchesReference: from random incumbents, which leave refine
// many moves to accept over several rounds, refine climbs to exactly the
// pre-change climb's assignment and cost (refRefine). It runs on the
// goldens and the generated shapes over every context and candidates that
// split sockets, on many small DAGs over a few candidates, and on fixed
// instances where a twin's rejection goes stale:
//
//   - ivy-stale-twin: on Ivy, task 0's move to an idle context of socket
//     0 loses in the first round, a later accepted move of task 1 makes
//     it win in the second. A memo of rejected twins kept across that
//     accepted move skips it and ends at cost 5, not 3.
//   - ivy-stale-after-swap: task 5's move to idle context 19 loses in the
//     first round, whose last accepted candidate swaps tasks 2 and 5, and
//     wins in the second. A memo kept across the swap skips it.
func TestRefineMatchesReference(t *testing.T) {
	type instance struct {
		name   string
		top    *topo.Topology
		d      *graph.TaskDAG
		ctxs   []int
		start  []int
		budget int
	}
	var cases []instance
	ivy := loadGolden(t, "ivy.mctop")
	cases = append(cases, instance{
		name: "ivy-stale-twin", top: ivy,
		d: &graph.TaskDAG{
			Nodes: []graph.TaskNode{{ID: 0, Work: 2}, {ID: 1, Work: 3}, {ID: 2, Work: 0}},
			Edges: []graph.TaskEdge{{From: 1, To: 2, Volume: 10}},
		},
		ctxs: []int{1, 2, 5, 23, 28, 29}, start: []int{29, 29, 1}, budget: 132,
	}, instance{
		name: "ivy-stale-after-swap", top: ivy,
		d: &graph.TaskDAG{
			Nodes: []graph.TaskNode{{ID: 0, Work: 0}, {ID: 1, Work: 1}, {ID: 2, Work: 2}, {ID: 3, Work: 0}, {ID: 4, Work: 2}, {ID: 5, Work: 1}},
			Edges: []graph.TaskEdge{{From: 0, To: 3}, {From: 1, To: 0, Volume: 20}, {From: 2, To: 3}, {From: 4, To: 1, Volume: 18}},
		},
		ctxs: []int{15, 19, 20, 25}, start: []int{25, 15, 19, 20, 19, 20}, budget: 129,
	})
	rng := rand.New(rand.NewSource(44))
	for _, top := range oracleTops(t) {
		budgets := []int{1, 300, 3000}
		if top.NumHWContexts() > 256 {
			budgets = budgets[:2]
		}
		for trial := 0; trial < 12; trial++ {
			d := randomDAG(rng, 2+rng.Intn(16), 0.4*rng.Float64(), false)
			if trial%3 != 2 {
				tinyWeights(rng, d)
			}
			for _, ctxs := range [][]int{nil, splitCtxs(rng, top)} {
				for _, budget := range budgets {
					cases = append(cases, instance{name: fmt.Sprintf("%s-%d", top.Name(), trial), top: top, d: d, ctxs: ctxs, budget: budget})
				}
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		top := []*topo.Topology{ivy, loadGolden(t, "sparc.mctop")}[trial%2]
		d := randomDAG(rng, 2+rng.Intn(7), 0.6*rng.Float64(), false)
		tinyWeights(rng, d)
		ctxs := randomCtxs(rng, top.NumHWContexts())
		cases = append(cases, instance{name: fmt.Sprintf("small-%d", trial), top: top, d: d, ctxs: ctxs[:min(len(ctxs), 6)], budget: 1 + rng.Intn(400)})
	}
	for _, c := range cases {
		ctxs, err := candidates(c.top, Options{Ctxs: c.ctxs})
		if err != nil {
			t.Fatal(err)
		}
		start := c.start
		if start == nil {
			start = make([]int, len(c.d.Nodes))
			for v := range start {
				start[v] = ctxs[rng.Intn(len(ctxs))]
			}
		}
		checkRefine(t, c.name, c.top, c.d, ctxs, start, c.budget)
	}
}

// checkRefine fails t unless refine and the pre-change climb refRefine
// reach the same assignment and cost from start.
func checkRefine(t testing.TB, name string, top *topo.Topology, d *graph.TaskDAG, ctxs, start []int, budget int) {
	t.Helper()
	s, err := newSim(top, d)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := refNewSim(top, d)
	if err != nil {
		t.Fatal(err)
	}
	cs := groupBySocket(top, ctxs)
	ctx := context.Background()
	got, gotCost, err := refine(ctx, s, &cs, start, s.cost(start, math.MaxInt64), budget)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCost, err := refRefine(ctx, rs, ctxs, start, rs.cost(start), budget)
	if err != nil {
		t.Fatal(err)
	}
	if gotCost != wantCost || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%d nodes, %d edges, candidates %v, budget %d, from %v):\n got cost %d %v\nwant cost %d %v",
			name, len(d.Nodes), len(d.Edges), ctxs, budget, start, gotCost, got, wantCost, want)
	}
}
