package taskmap

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topo"
)

var goldenPlatformFiles = []string{
	"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop",
}

func loadGolden(t testing.TB, file string) *topo.Topology {
	t.Helper()
	top, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", file))
	if err != nil {
		t.Fatalf("loading golden %s: %v", file, err)
	}
	return top
}

// randomDAG draws an n-node DAG: each pair of ranks gets an edge from the
// lower to the higher rank with probability p, works span 0..1e5 cycles
// and volumes 0..1 MB (zero-byte and sub-cache-line edges included). Ranks
// are mapped to ids by a random permutation, so the canonical order is not
// the id order and a task's position in it is not its id. With shuffle the
// edges are left in random order, which Map accepts as well as the
// canonical one.
func randomDAG(rng *rand.Rand, n int, p float64, shuffle bool) *graph.TaskDAG {
	d := &graph.TaskDAG{Name: "rand"}
	for v := 0; v < n; v++ {
		d.Nodes = append(d.Nodes, graph.TaskNode{ID: v, Work: rng.Int63n(100_001)})
	}
	id := rng.Perm(n)
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if rng.Float64() < p {
				vol := rng.Int63n(1 << 20)
				if rng.Intn(8) == 0 {
					vol = rng.Int63n(CacheLine + 1)
				}
				d.Edges = append(d.Edges, graph.TaskEdge{From: id[from], To: id[to], Volume: vol})
			}
		}
	}
	if !shuffle {
		d.Normalize()
	}
	if shuffle {
		rng.Shuffle(len(d.Edges), func(i, j int) { d.Edges[i], d.Edges[j] = d.Edges[j], d.Edges[i] })
	}
	return d
}

// tinyWeights redraws a DAG's works from 0..3 cycles and leaves one edge
// in eight carrying data (one cache line): schedules then tie and improve
// by single cycles, where an off-by-one in a bound changes the answer.
func tinyWeights(rng *rand.Rand, d *graph.TaskDAG) {
	for i := range d.Nodes {
		d.Nodes[i].Work = rng.Int63n(4)
	}
	for i := range d.Edges {
		d.Edges[i].Volume = 0
		if rng.Intn(8) == 0 {
			d.Edges[i].Volume = 1 + rng.Int63n(CacheLine)
		}
	}
}

// randomCtxs draws a random candidate subset of 1..min(n, 24) contexts, in
// random order (Map sorts them).
func randomCtxs(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(min(n, 24))
	return rng.Perm(n)[:k]
}

// TestMapMatchesReference is the pinned-equivalence oracle of the
// incremental, tail-bounded pricer: on seeded random DAGs of 2–61 nodes,
// on all five golden platforms and three inferred generated shapes (a
// 24-context ring, a 128-context circulant and a 512-context mesh), at
// refine budgets from none to a full climb (at most 200 on the mesh, to
// keep the test fast) and over both every context and a random candidate
// subset, Map returns exactly the assignment and cost of the pre-change
// mapper (reference_test.go). Half the DAGs carry tiny works and mostly
// free edges (tinyWeights), so single-cycle improvements occur.
func TestMapMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	var tops []*topo.Topology
	for _, file := range goldenPlatformFiles {
		tops = append(tops, loadGolden(t, file))
	}
	for _, name := range []string{"gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2", "gen:mesh:s16:c16:t2"} {
		p, err := sim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, enriched(t, p))
	}
	for _, top := range tops {
		file := top.Name()
		budgets := []int{0, 1, 50, 200, 2000}
		if top.NumHWContexts() > 256 {
			budgets = budgets[:4]
		}
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(60)
			d := randomDAG(rng, n, 0.5*rng.Float64()*rng.Float64(), trial%2 == 1)
			if trial%4 >= 2 {
				tinyWeights(rng, d)
			}
			for _, ctxs := range [][]int{nil, randomCtxs(rng, top.NumHWContexts())} {
				for _, budget := range budgets {
					opt := Options{RefineBudget: budget, Ctxs: ctxs}
					got, err := Map(ctx, top, d, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refMap(ctx, top, d, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cost() != want.Cost() || !reflect.DeepEqual(got.Assignment(), want.Assignment()) {
						t.Fatalf("%s trial %d (%d nodes, %d edges, %d candidates, budget %d):\n got cost %d %v\nwant cost %d %v",
							file, trial, n, len(d.Edges), len(ctxs), budget,
							got.Cost(), got.Assignment(), want.Cost(), want.Assignment())
					}
				}
			}
		}
	}
}

// TestBruteForceMatchesReference: pricing against the incumbent as a
// bound leaves the exhaustive search's answer — lowest cost, smallest tie —
// exactly the pre-change one.
func TestBruteForceMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(30))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		for trial := 0; trial < 6; trial++ {
			d := randomDAG(rng, 2+rng.Intn(6), 0.5, trial%2 == 1)
			opt := Options{Ctxs: randomCtxs(rng, top.NumHWContexts())[:1+rng.Intn(4)]}
			got, err := BruteForce(ctx, top, d, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refBruteForce(ctx, top, d, opt)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(got) != fingerprint(want) {
				t.Fatalf("%s trial %d: BruteForce %s, reference %s", file, trial, fingerprint(got), fingerprint(want))
			}
		}
	}
}

// TestPricerAllocationFree: resuming a warmed pricer, and one refine
// candidate (restore + resume bounded by the incumbent and its tails),
// allocate nothing.
func TestPricerAllocationFree(t *testing.T) {
	top := loadGolden(t, "sparc.mctop")
	d := randomDAG(rand.New(rand.NewSource(31)), 48, 0.1, false)
	s, err := newSim(top, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(context.Background(), top, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assign := m.Assignment()
	full := s.cost(assign, math.MaxInt64)
	p := len(s.order) / 3
	mk := s.snapshot(assign, p)
	if a := testing.AllocsPerRun(100, func() { s.resume(assign, p, len(s.order), mk, math.MaxInt64) }); a != 0 {
		t.Errorf("resume allocates %.1f times per call", a)
	}
	v := s.order[p]
	s.tails(assign)
	if a := testing.AllocsPerRun(100, func() {
		assign[v] = (assign[v] + 1) % top.NumHWContexts()
		s.restore()
		s.resume(assign, p, p+1, mk, full)
	}); a != 0 {
		t.Errorf("a refine candidate allocates %.1f times", a)
	}
}

// TestMapAllocs pins what one Map call allocates on a generated 24-node,
// 39-edge DAG over Westmere's 80 contexts: 15 allocations for greedy (the
// DAG's successor layout, and its order in one array with the Kahn pass's
// scratch; the pricer and its arrays, four; the candidates and their
// grouping by socket, two; greedy's priorities and start rows in one
// array, its assignment and its scratch; the serial fallback, the Mapping,
// and the Mapping's copy of the DAG's nodes and edges, two, which DAGHash
// hashes on first use) and 17 with a refine budget of 200 (the incumbent's
// copy and refine's scratch on top).
func TestMapAllocs(t *testing.T) {
	top := loadGolden(t, "westmere.mctop")
	top.GetLatency(0, 1) // build the topology's index outside the measurement
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 8}, 1)
	if len(d.Nodes) != 24 || len(d.Edges) != 39 {
		t.Fatalf("generated DAG has %d nodes and %d edges, want 24 and 39", len(d.Nodes), len(d.Edges))
	}
	for _, c := range []struct {
		budget int
		allocs float64
	}{{0, 15}, {200, 17}} {
		if got := testing.AllocsPerRun(20, func() {
			if _, err := Map(context.Background(), top, d, Options{RefineBudget: c.budget}); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("Map at refine budget %d allocates %v, want %v", c.budget, got, c.allocs)
		}
	}
}

// TestResumeMatchesCost: for every prefix length, snapshot + restore +
// resume prices an assignment exactly as cost does, and a bounded price
// is exact below the bound and at least the bound otherwise — also when
// the assignment's own tails cut it off from any position on.
func TestResumeMatchesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		d := randomDAG(rng, 30, 0.15, true)
		s, err := newSim(top, d)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int, len(d.Nodes))
		for v := range assign {
			assign[v] = rng.Intn(top.NumHWContexts())
		}
		want := s.cost(assign, math.MaxInt64)
		s.tails(assign)
		for p := 0; p <= len(s.order); p++ {
			mk := s.snapshot(assign, p)
			for q := p; q <= len(s.order); q++ {
				for _, bound := range []int64{math.MaxInt64, want + 1, want, want / 2} {
					s.restore()
					got := s.resume(assign, p, q, mk, bound)
					if (bound > want && got != want) || (bound <= want && got < bound) {
						t.Fatalf("%s: resume from %d, tails from %d, bound %d = %d, cost = %d", file, p, q, bound, got, want)
					}
				}
			}
		}
	}
}
