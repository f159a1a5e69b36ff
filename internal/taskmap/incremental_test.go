package taskmap

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

var goldenPlatformFiles = []string{
	"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop",
}

func loadGolden(t *testing.T, file string) *topo.Topology {
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

// randomCtxs draws a random candidate subset of 1..min(n, 24) contexts, in
// random order (Map sorts them).
func randomCtxs(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(min(n, 24))
	return rng.Perm(n)[:k]
}

// TestMapMatchesReference is the pinned-equivalence oracle of the
// incremental pricer: on seeded random DAGs of 2–61 nodes, on all five
// golden platforms, at refine budgets from none to a full climb and over
// both every context and a random candidate subset, Map returns exactly
// the assignment and cost of the pre-change mapper (reference_test.go).
func TestMapMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(60)
			d := randomDAG(rng, n, 0.5*rng.Float64()*rng.Float64(), trial%2 == 1)
			for _, ctxs := range [][]int{nil, randomCtxs(rng, top.NumHWContexts())} {
				for _, budget := range []int{0, 1, 50, 200, 2000} {
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
// candidate (restore + bounded resume), allocate nothing.
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
	if a := testing.AllocsPerRun(100, func() { s.resume(assign, p, mk, math.MaxInt64) }); a != 0 {
		t.Errorf("resume allocates %.1f times per call", a)
	}
	v := s.order[p]
	if a := testing.AllocsPerRun(100, func() {
		assign[v] = (assign[v] + 1) % top.NumHWContexts()
		s.restore()
		s.resume(assign, p, mk, full)
	}); a != 0 {
		t.Errorf("a refine candidate allocates %.1f times", a)
	}
}

// TestResumeMatchesCost: for every prefix length, snapshot + restore +
// resume prices an assignment exactly as cost does, and a bounded price
// is exact below the bound and at least the bound otherwise.
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
		for p := 0; p <= len(s.order); p++ {
			mk := s.snapshot(assign, p)
			for _, bound := range []int64{math.MaxInt64, want + 1, want, want / 2} {
				s.restore()
				got := s.resume(assign, p, mk, bound)
				if (bound > want && got != want) || (bound <= want && got < bound) {
					t.Fatalf("%s: resume from %d bound %d = %d, cost = %d", file, p, bound, got, want)
				}
			}
		}
	}
}
