package graph

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mctoperr"
)

func TestGenTaskDAGDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := GenTaskDAG(DAGParams{Layers: 4, Width: 4}, seed)
		b := GenTaskDAG(DAGParams{Layers: 4, Width: 4}, seed)
		if a.Hash() != b.Hash() {
			t.Fatalf("seed %d: same seed produced different DAGs", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated DAG invalid: %v", seed, err)
		}
		if seed > 1 {
			prev := GenTaskDAG(DAGParams{Layers: 4, Width: 4}, seed-1)
			if prev.Hash() == a.Hash() {
				t.Fatalf("seeds %d and %d produced identical DAGs", seed-1, seed)
			}
		}
	}
}

func TestGenTaskDAGConnected(t *testing.T) {
	// Every non-root task must have at least one parent: the layered
	// generator guarantees a parent in the previous layer.
	d := GenTaskDAG(DAGParams{Layers: 5, Width: 5}, 7)
	hasParent := make([]bool, len(d.Nodes))
	for _, e := range d.Edges {
		hasParent[e.To] = true
	}
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	// The first layer has no parents; find its width from the first
	// nodes that lack one.
	roots := 0
	for i := range d.Nodes {
		if !hasParent[i] {
			roots++
		}
	}
	if roots == len(d.Nodes) && len(d.Nodes) > 1 {
		t.Fatalf("no edges generated at all")
	}
	if len(order) != len(d.Nodes) {
		t.Fatalf("topo order has %d of %d nodes", len(order), len(d.Nodes))
	}
}

func TestTaskDAGHashIgnoresNameAndEdgeOrder(t *testing.T) {
	a := &TaskDAG{
		Name:  "alpha",
		Nodes: []TaskNode{{0, 10}, {1, 20}, {2, 30}},
		Edges: []TaskEdge{{0, 2, 5}, {0, 1, 7}},
	}
	b := &TaskDAG{
		Name:  "beta",
		Nodes: []TaskNode{{0, 10}, {1, 20}, {2, 30}},
		Edges: []TaskEdge{{0, 1, 7}, {0, 2, 5}},
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash should ignore name and edge order: %x vs %x", a.Hash(), b.Hash())
	}
	c := &TaskDAG{
		Nodes: []TaskNode{{0, 10}, {1, 20}, {2, 31}},
		Edges: []TaskEdge{{0, 1, 7}, {0, 2, 5}},
	}
	if a.Hash() == c.Hash() {
		t.Fatalf("hash should see the changed work weight")
	}
}

func TestTaskDAGValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		d    TaskDAG
	}{
		{"empty", TaskDAG{}},
		{"sparse ids", TaskDAG{Nodes: []TaskNode{{0, 1}, {2, 1}}}},
		{"negative work", TaskDAG{Nodes: []TaskNode{{0, -1}}}},
		{"edge out of range", TaskDAG{Nodes: []TaskNode{{0, 1}}, Edges: []TaskEdge{{0, 3, 1}}}},
		{"self loop", TaskDAG{Nodes: []TaskNode{{0, 1}}, Edges: []TaskEdge{{0, 0, 1}}}},
		{"negative volume", TaskDAG{Nodes: []TaskNode{{0, 1}, {1, 1}}, Edges: []TaskEdge{{0, 1, -1}}}},
		{"duplicate edge", TaskDAG{Nodes: []TaskNode{{0, 1}, {1, 1}}, Edges: []TaskEdge{{0, 1, 1}, {0, 1, 2}}}},
		{"cycle", TaskDAG{Nodes: []TaskNode{{0, 1}, {1, 1}}, Edges: []TaskEdge{{0, 1, 1}, {1, 0, 1}}}},
		{"name with a newline", TaskDAG{Name: "x\nend", Nodes: []TaskNode{{0, 1}}}},
		{"name with a carriage return", TaskDAG{Name: "x\rend", Nodes: []TaskNode{{0, 1}}}},
		{"name with leading space", TaskDAG{Name: " x", Nodes: []TaskNode{{0, 1}}}},
		{"name with trailing tab", TaskDAG{Name: "x\t", Nodes: []TaskNode{{0, 1}}}},
		{"name of white space", TaskDAG{Name: "\u00a0", Nodes: []TaskNode{{0, 1}}}},
	}
	for _, tc := range cases {
		if err := tc.d.Validate(); !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Errorf("%s: Validate = %v, want an ErrInvalidRequest", tc.name, err)
		}
	}
	// Inner white space is line-safe.
	ok := TaskDAG{Name: "word count", Nodes: []TaskNode{{0, 1}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate refused the name %q: %v", ok.Name, err)
	}
}

func TestTaskDAGTopoOrderDeterministic(t *testing.T) {
	d := &TaskDAG{
		Nodes: []TaskNode{{0, 1}, {1, 1}, {2, 1}, {3, 1}},
		Edges: []TaskEdge{{2, 0, 1}, {3, 1, 1}},
	}
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	// After 2 is placed, 0 becomes ready and beats 3 on the min-id rule.
	want := []int{2, 0, 3, 1}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("topo order = %v, want %v (smallest ready id first)", order, want)
	}
}

// TestTopoOrderSmallestReadyFirst checks TopoOrder against the rule's
// definition — at every step, the smallest id whose parents are all placed —
// on generated DAGs with their ids scrambled, so the order is not the id
// order.
func TestTopoOrderSmallestReadyFirst(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := GenTaskDAG(DAGParams{Layers: 6, Width: 6}, seed)
		n := len(g.Nodes)
		id := make([]int, n) // a fixed scramble: i -> (7i + seed) mod n
		for i := range id {
			id[i] = (7*i + int(seed)) % n
		}
		seen := map[int]bool{}
		for _, v := range id {
			seen[v] = true
		}
		if len(seen) != n {
			continue // 7 divides n: not a permutation
		}
		d := &TaskDAG{Nodes: g.Nodes}
		for _, e := range g.Edges {
			d.Edges = append(d.Edges, TaskEdge{From: id[e.From], To: id[e.To], Volume: e.Volume})
		}
		order, err := d.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		placed := make([]bool, n)
		for step, got := range order {
			want := -1
			for v := 0; v < n && want < 0; v++ {
				ok := !placed[v]
				for _, e := range d.Edges {
					if e.To == v && !placed[e.From] {
						ok = false
					}
				}
				if ok {
					want = v
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: TopoOrder placed %d, want %d", seed, step, got, want)
			}
			placed[got] = true
		}
	}
}

func TestTaskDAGNDJSONRoundTrip(t *testing.T) {
	d := GenTaskDAG(DAGParams{Layers: 3, Width: 3}, 42)
	d.Name = "roundtrip"
	var buf bytes.Buffer
	if err := EncodeTaskDAG(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTaskDAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name {
		t.Fatalf("name = %q, want %q", got.Name, d.Name)
	}
	if got.Hash() != d.Hash() {
		t.Fatalf("round-trip changed the DAG: %x vs %x", got.Hash(), d.Hash())
	}
}

func TestDecodeTaskDAGCommentsAndErrors(t *testing.T) {
	src := strings.Join([]string{
		"# a comment",
		`{"dag":"demo"}`,
		"",
		`{"node":0,"work":100}`,
		`{"node":1,"work":200}`,
		`  {"edge":[0,1],"volume":4096}`,
	}, "\n")
	d, err := DecodeTaskDAG(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" || len(d.Nodes) != 2 || len(d.Edges) != 1 {
		t.Fatalf("decoded %+v", d)
	}
	if _, err := DecodeTaskDAG(strings.NewReader(`{"bogus":1}`)); err == nil {
		t.Fatal("decoder accepted a line with no section")
	}
	if _, err := DecodeTaskDAG(strings.NewReader(`{"node":0,"work":1` + "\n")); err == nil {
		t.Fatal("decoder accepted malformed JSON")
	}
}
