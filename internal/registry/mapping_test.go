package registry

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

func TestParseMapKeyRoundTrip(t *testing.T) {
	opts := []mctopalg.Options{{}, {Reps: 2000}, {Reps: 201, Sampling: true}}
	dags := []*graph.TaskDAG{
		graph.GenTaskDAG(graph.DAGParams{}, 1),
		graph.GenTaskDAG(graph.DAGParams{Layers: 5, Width: 4}, 77),
		{Nodes: []graph.TaskNode{{ID: 0, Work: 5}}}, // single node, zero edges
	}
	for _, opt := range opts {
		for _, d := range dags {
			for _, refine := range []int{0, 2000} {
				key := MapKey("Ivy", 42, opt, d, refine)
				tk, hash, nodes, edges, ref, err := ParseMapKey(key)
				if err != nil {
					t.Fatalf("ParseMapKey(%q): %v", key, err)
				}
				if tk != TopoKey("Ivy", 42, opt) || hash != d.Hash() ||
					nodes != len(d.Nodes) || edges != len(d.Edges) || ref != refine {
					t.Fatalf("ParseMapKey(%q) = (%q, %x, %d, %d, %d)", key, tk, hash, nodes, edges, ref)
				}
				if got := mapKey(tk, hash, nodes, edges, ref); got != key {
					t.Fatalf("re-serialized key %q != original %q", got, key)
				}
			}
		}
	}
}

func TestParseMapKeyRejectsMalformed(t *testing.T) {
	d := graph.GenTaskDAG(graph.DAGParams{}, 1)
	good := MapKey("Ivy", 42, mctopalg.Options{Reps: 201}, d, 100)
	tk := TopoKey("Ivy", 42, mctopalg.Options{Reps: 201})
	bad := []string{
		"",
		tk,                                 // a topology key is not a mapping key
		"map|" + tk,                        // nothing after the topology key
		"map|" + tk + "|deadbeef|n4|e2|r0", // short hash
		"map|" + tk + "|DEADBEEFDEADBEEF|n4|e2|r0",  // uppercase hash
		"map|" + tk + "|zzzzzzzzzzzzzzzz|n4|e2|r0",  // non-hex hash
		"map|" + tk + "|0123456789abcdef|e2|r0",     // missing nodes field
		"map|" + tk + "|0123456789abcdef|n0|e2|r0",  // zero nodes
		"map|" + tk + "|0123456789abcdef|n4|e2|r-1", // negative refine
		"map|" + tk + "|0123456789abcdef|n04|e2|r0", // non-canonical nodes
		"map|" + tk + "|0123456789abcdef|n4|e+2|r0", // signed edges
		"map|not-a-topo-key|0123456789abcdef|n4|e2|r0",
		good + "|x",
		good + "x", // junk in the refine field
		strings.Replace(good, "|n", "|N", 1),
		fetrue(good),
	}
	for _, key := range bad {
		_, _, _, _, _, err := ParseMapKey(key)
		if err == nil {
			t.Fatalf("ParseMapKey(%q) accepted a malformed key", key)
		}
		// The daemon maps mapping-key failures to 400.
		if !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Fatalf("ParseMapKey(%q) error %v does not wrap ErrInvalidRequest", key, err)
		}
	}
}

// mapTestRegistry builds a registry over the shared stub topology and a
// counting MapFunc, so mapping cache behaviour is testable without
// repeated inference.
func mapTestRegistry(t *testing.T, computes *atomic.Int64) *Registry {
	t.Helper()
	return New(Options{
		InferCtx: func(_ context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			return fakeTopo(), nil
		},
		MapFn: func(ctx context.Context, tp *topo.Topology, d *graph.TaskDAG, opt taskmap.Options) (*taskmap.Mapping, error) {
			computes.Add(1)
			return taskmap.Map(ctx, tp, d, opt)
		},
	})
}

func TestMapDAGCachedAndSingleflight(t *testing.T) {
	var computes atomic.Int64
	r := mapTestRegistry(t, &computes)
	d := graph.GenTaskDAG(graph.DAGParams{}, 3)

	m1, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d mappings for two identical requests", computes.Load())
	}
	if m1 != m2 {
		t.Fatal("second request did not return the cached mapping")
	}
	// A renamed but structurally identical DAG shares the entry.
	renamed := &graph.TaskDAG{Name: "other", Nodes: d.Nodes, Edges: d.Edges}
	if _, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, renamed, 100); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatal("renamed identical DAG missed the cache")
	}
	// A different refine budget is a different entry.
	if _, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, d, 200); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 2 {
		t.Fatalf("refine budget change should recompute, computes=%d", computes.Load())
	}
	st := r.Stats()
	if st.Mappings != 2 {
		t.Fatalf("Stats.Mappings = %d, want 2", st.Mappings)
	}
	if len(st.Tiers) == 0 || st.Tiers[0].Mappings != 2 {
		t.Fatalf("tier mapping residency = %+v", st.Tiers)
	}
	if ks, ok := st.Tiers[0].Kinds[KindMapping.String()]; !ok || ks.Entries != 2 {
		t.Fatalf("per-kind mapping stats = %+v", st.Tiers[0].Kinds)
	}
}

func TestMapDAGRejectsInvalid(t *testing.T) {
	var computes atomic.Int64
	r := mapTestRegistry(t, &computes)
	cases := []struct {
		name string
		d    *graph.TaskDAG
		ref  int
	}{
		{"nil DAG", nil, 0},
		{"cyclic", &graph.TaskDAG{
			Nodes: []graph.TaskNode{{ID: 0, Work: 1}, {ID: 1, Work: 1}},
			Edges: []graph.TaskEdge{{From: 0, To: 1, Volume: 1}, {From: 1, To: 0, Volume: 1}},
		}, 0},
		{"negative refine", graph.GenTaskDAG(graph.DAGParams{}, 1), -1},
	}
	for _, c := range cases {
		_, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, c.d, c.ref)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Fatalf("%s: error %v does not wrap ErrInvalidRequest", c.name, err)
		}
	}
	if computes.Load() != 0 {
		t.Fatal("invalid requests must not reach the map function")
	}
}

func TestMapDAGObserverAndErrors(t *testing.T) {
	var observed atomic.Int64
	mapErr := errors.New("mapper exploded")
	r := New(Options{
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			return fakeTopo(), nil
		},
		MapFn: func(context.Context, *topo.Topology, *graph.TaskDAG, taskmap.Options) (*taskmap.Mapping, error) {
			return nil, mapErr
		},
	})
	r.Instrument(&Observer{OnCompute: func(kind Kind, d time.Duration, err error) {
		if kind != KindMapping {
			return // the mapping's topology inference
		}
		observed.Add(1)
		if !errors.Is(err, mapErr) {
			t.Errorf("observer saw err %v, want mapErr", err)
		}
	}})
	d := graph.GenTaskDAG(graph.DAGParams{}, 5)
	if _, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, d, 0); !errors.Is(err, mapErr) {
		t.Fatalf("err = %v, want mapErr", err)
	}
	if observed.Load() != 1 {
		t.Fatalf("observer invoked %d times, want 1", observed.Load())
	}
	// Errors are not cached: a second call computes (and fails) again.
	if _, err := r.MapDAGContext(bg, "Ivy", 42, mctopalg.Options{}, d, 0); !errors.Is(err, mapErr) {
		t.Fatalf("err = %v, want mapErr", err)
	}
	if observed.Load() != 2 {
		t.Fatalf("failed mapping was cached (observer invoked %d times)", observed.Load())
	}
	if st := r.Stats(); st.Mappings != 2 {
		t.Fatalf("Stats.Mappings = %d, want 2 attempted computes", st.Mappings)
	}
}
