package taskmap

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	topoCache = map[string]*topo.Topology{}
	topoMu    sync.Mutex
)

// enriched infers and enriches a platform's topology (cached per
// platform: mappings never mutate it).
func enriched(t testing.TB, p *sim.Platform) *topo.Topology {
	t.Helper()
	topoMu.Lock()
	defer topoMu.Unlock()
	if tp, ok := topoCache[p.Name]; ok {
		return tp
	}
	m, err := machine.NewSim(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	o := mctopalg.Options{Reps: 51}
	res, err := mctopalg.InferContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	topoCache[p.Name] = tp
	return tp
}

// testCtxs picks a small deterministic candidate set spanning the
// topology — first context, a near neighbor, mid (usually cross-socket),
// and last — so brute force stays 4^8 at most.
func testCtxs(tp *topo.Topology) []int {
	n := tp.NumHWContexts()
	ctxs := []int{0}
	for _, c := range []int{1, n / 2, n - 1} {
		if c > 0 && c < n && c != ctxs[len(ctxs)-1] {
			ctxs = append(ctxs, c)
		}
	}
	return ctxs
}

// fingerprint serializes a mapping for byte-stability comparison.
func fingerprint(m *Mapping) string {
	return fmt.Sprintf("%s|%x|%d|%v", m.Algo(), m.DAGHash(), m.Cost(), m.Assignment())
}

// TestGreedyWithinGapOfBrute is the optimality-gap property test: on all
// five golden platforms, for a batch of seeded random DAGs of at most 8
// nodes, brute ≤ greedy ≤ 1.5·brute, refinement never hurts, and every
// result is stable across repeated runs.
func TestGreedyWithinGapOfBrute(t *testing.T) {
	ctx := context.Background()
	for _, p := range sim.Platforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tp := enriched(t, p)
			ctxs := testCtxs(tp)
			for seed := uint64(1); seed <= 10; seed++ {
				d := graph.GenTaskDAG(graph.DAGParams{Layers: 4, Width: 2}, seed)
				if len(d.Nodes) > 8 {
					t.Fatalf("seed %d: generator exceeded 8 nodes (%d)", seed, len(d.Nodes))
				}
				opt := Options{Ctxs: ctxs}
				brute, err := BruteForce(ctx, tp, d, opt)
				if err != nil {
					t.Fatalf("seed %d: brute: %v", seed, err)
				}
				g, err := Map(ctx, tp, d, opt)
				if err != nil {
					t.Fatalf("seed %d: greedy: %v", seed, err)
				}
				if g.Cost() < brute.Cost() {
					t.Fatalf("seed %d: greedy %d beat exhaustive brute %d — cost models diverge",
						seed, g.Cost(), brute.Cost())
				}
				if g.Cost()*2 > brute.Cost()*3 { // greedy > 1.5×brute
					t.Errorf("seed %d: greedy %d exceeds 1.5x brute %d", seed, g.Cost(), brute.Cost())
				}
				r, err := Map(ctx, tp, d, Options{Ctxs: ctxs, RefineBudget: 2000})
				if err != nil {
					t.Fatalf("seed %d: refine: %v", seed, err)
				}
				if r.Cost() > g.Cost() {
					t.Errorf("seed %d: refinement worsened cost %d -> %d", seed, g.Cost(), r.Cost())
				}
				if r.Cost() < brute.Cost() {
					t.Fatalf("seed %d: refined %d beat brute %d", seed, r.Cost(), brute.Cost())
				}
				// Byte-stability: a second run must reproduce each result
				// exactly.
				g2, _ := Map(ctx, tp, d, opt)
				r2, _ := Map(ctx, tp, d, Options{Ctxs: ctxs, RefineBudget: 2000})
				if fingerprint(g) != fingerprint(g2) || fingerprint(r) != fingerprint(r2) {
					t.Fatalf("seed %d: mapping not byte-stable", seed)
				}
				// The recorded cost must be the canonical Estimate of the
				// assignment — never a private metric.
				for _, m := range []*Mapping{brute, g, r} {
					est, err := Estimate(tp, d, m.Assignment())
					if err != nil {
						t.Fatal(err)
					}
					if est != m.Cost() {
						t.Fatalf("seed %d: %s cost %d != Estimate %d", seed, m.Algo(), m.Cost(), est)
					}
				}
			}
		})
	}
}

// TestExactOnChains: on a pure chain the optimum is co-location (cost =
// total work) and greedy must find it on every platform.
func TestExactOnChains(t *testing.T) {
	ctx := context.Background()
	d := &graph.TaskDAG{Name: "chain8"}
	for i := 0; i < 8; i++ {
		d.Nodes = append(d.Nodes, graph.TaskNode{ID: i, Work: int64(100 * (i + 1))})
		if i > 0 {
			d.Edges = append(d.Edges, graph.TaskEdge{From: i - 1, To: i, Volume: 1 << 14})
		}
	}
	for _, p := range sim.Platforms() {
		tp := enriched(t, p)
		opt := Options{Ctxs: testCtxs(tp)}
		brute, err := BruteForce(ctx, tp, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Map(ctx, tp, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost() != brute.Cost() {
			t.Errorf("%s: chain greedy %d != brute %d", p.Name, g.Cost(), brute.Cost())
		}
		if g.Cost() != d.TotalWork() {
			t.Errorf("%s: chain cost %d != total work %d (should co-locate)", p.Name, g.Cost(), d.TotalWork())
		}
	}
}

// TestExactOnIndependent: with as many candidate contexts as (edge-free)
// tasks, the optimum is one task per context — makespan = max work — and
// greedy must match brute exactly.
func TestExactOnIndependent(t *testing.T) {
	ctx := context.Background()
	d := &graph.TaskDAG{Name: "indep4"}
	for i, w := range []int64{700, 400, 900, 300} {
		d.Nodes = append(d.Nodes, graph.TaskNode{ID: i, Work: w})
	}
	for _, p := range sim.Platforms() {
		tp := enriched(t, p)
		ctxs := testCtxs(tp)
		if len(ctxs) < len(d.Nodes) {
			t.Fatalf("%s: need %d candidate ctxs, have %d", p.Name, len(d.Nodes), len(ctxs))
		}
		opt := Options{Ctxs: ctxs}
		brute, err := BruteForce(ctx, tp, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Map(ctx, tp, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost() != brute.Cost() || g.Cost() != 900 {
			t.Errorf("%s: independent greedy %d, brute %d, want 900", p.Name, g.Cost(), brute.Cost())
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	d := graph.GenTaskDAG(graph.DAGParams{}, 1)
	if _, err := Estimate(tp, d, make([]int, len(d.Nodes)+1)); err == nil {
		t.Error("Estimate accepted a wrong-length assignment")
	}
	bad := make([]int, len(d.Nodes))
	bad[0] = tp.NumHWContexts()
	if _, err := Estimate(tp, d, bad); err == nil {
		t.Error("Estimate accepted an out-of-range context")
	}
	if _, err := Map(context.Background(), tp, d, Options{Ctxs: []int{0, 0}}); err == nil {
		t.Error("Map accepted duplicate candidate contexts")
	}
	if _, err := Map(context.Background(), tp, d, Options{Ctxs: []int{-1}}); err == nil {
		t.Error("Map accepted a negative candidate context")
	}
}

func TestBruteForceBudget(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 4, MinWork: 1}, 3)
	if len(d.Nodes) < 12 {
		t.Skip("generator produced a small DAG") // params make this unreachable
	}
	_, err := BruteForce(context.Background(), tp, d, Options{})
	if err == nil {
		t.Fatal("BruteForce accepted a search space beyond its budget")
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	d := graph.GenTaskDAG(graph.DAGParams{}, 9)
	m, err := Map(context.Background(), tp, d, Options{RefineBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reconstruct(tp, m.DAGName(), m.DAGHash(), m.NumNodes(), m.NumEdges(), m.Algo(), m.Cost(), m.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(r) != fingerprint(m) {
		t.Fatalf("reconstructed mapping differs: %s vs %s", fingerprint(r), fingerprint(m))
	}
	if _, err := Reconstruct(tp, "", 0, 2, 0, "greedy", 1, []int{0}); err == nil {
		t.Error("Reconstruct accepted a wrong-length assignment")
	}
	if _, err := Reconstruct(tp, "", 0, 1, 0, "greedy", 1, []int{tp.NumHWContexts()}); err == nil {
		t.Error("Reconstruct accepted an out-of-range context")
	}
	if _, err := Reconstruct(tp, "", 0, 1, 0, "greedy", -1, []int{0}); err == nil {
		t.Error("Reconstruct accepted a negative cost")
	}
}

// TestDAGHashIsTakenAtMap: a mapping's DAGHash is the hash of the DAG as
// it was mapped. Map and BruteForce leave the hash to DAGHash's first
// call, so a caller that edits its DAG afterwards — works, volumes, edge
// order, added edges, dropped nodes — must not change it; goroutines
// asking at once all get it (run it with -race).
func TestDAGHashIsTakenAtMap(t *testing.T) {
	tp := loadGolden(t, "ivy.mctop")
	ctx := context.Background()
	mappers := map[string]func(*graph.TaskDAG) (*Mapping, error){
		"greedy": func(d *graph.TaskDAG) (*Mapping, error) { return Map(ctx, tp, d, Options{}) },
		"refine": func(d *graph.TaskDAG) (*Mapping, error) { return Map(ctx, tp, d, Options{RefineBudget: 100}) },
		"brute": func(d *graph.TaskDAG) (*Mapping, error) {
			return BruteForce(ctx, tp, d, Options{Ctxs: []int{0, 1, 20}})
		},
	}
	for name, mapper := range mappers {
		for seed := uint64(1); seed <= 3; seed++ {
			d := graph.GenTaskDAG(graph.DAGParams{Layers: 3, Width: 2}, seed)
			want := d.Hash()
			m, err := mapper(d)
			if err != nil {
				t.Fatal(err)
			}
			d.Nodes[0].Work += 7
			d.Edges[0].Volume += CacheLine
			d.Edges[0], d.Edges[len(d.Edges)-1] = d.Edges[len(d.Edges)-1], d.Edges[0]
			d.Edges = append(d.Edges, graph.TaskEdge{From: 0, To: len(d.Nodes) - 1, Volume: 1})
			d.Nodes = d.Nodes[:1]
			if d.Hash() == want {
				t.Fatalf("%s seed %d: the edits left the DAG's hash as it was", name, seed)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := m.DAGHash(); got != want {
						t.Errorf("%s seed %d: DAGHash %016x after the edits, want %016x as mapped", name, seed, got, want)
					}
				}()
			}
			wg.Wait()
		}
	}
}

func TestMapCancellation(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 5, Width: 4}, 2)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(cctx, tp, d, Options{RefineBudget: 1 << 20}); err == nil {
		t.Error("Map with a huge refine budget ignored cancellation")
	}
	if _, err := BruteForce(cctx, tp, graph.GenTaskDAG(graph.DAGParams{Layers: 4, Width: 2}, 1),
		Options{Ctxs: testCtxs(tp)}); err == nil {
		t.Error("BruteForce ignored cancellation")
	}
}

func BenchmarkMapDAG_Greedy(b *testing.B) {
	tp := benchTopo(b)
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 6}, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), tp, d, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapDAG_Refine(b *testing.B) {
	tp := benchTopo(b)
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 6}, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), tp, d, Options{RefineBudget: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapDAG_Estimate(b *testing.B) {
	tp := benchTopo(b)
	d := graph.GenTaskDAG(graph.DAGParams{Layers: 6, Width: 6}, 11)
	m, err := Map(context.Background(), tp, d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	assign := m.Assignment()
	s, err := newSim(tp, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cost(assign, math.MaxInt64)
	}
}

func benchTopo(b *testing.B) *topo.Topology {
	b.Helper()
	topoMu.Lock()
	defer topoMu.Unlock()
	if tp, ok := topoCache["bench-ivy"]; ok {
		return tp
	}
	m, err := machine.NewSim(sim.Ivy(), 21)
	if err != nil {
		b.Fatal(err)
	}
	o := mctopalg.Options{Reps: 51}
	res, err := mctopalg.InferContext(context.Background(), m, o)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		b.Fatal(err)
	}
	topoCache["bench-ivy"] = tp
	return tp
}
