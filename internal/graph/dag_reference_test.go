package graph

// The DAG checks as they were before canonical edge order became a fast
// path: the verbatim pre-change checkShape, Hash and TopoOrder, renamed
// with a ref prefix, and Validate over them. Kept as the reference the
// fast paths are property-tested (TestShapeAndHashMatchReference) and
// fuzzed (FuzzDecodeTaskDAG) against.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/mctoperr"
)

func refValidate(d *TaskDAG) error {
	var err error
	if strings.ContainsAny(d.Name, "\r\n") || strings.TrimFunc(d.Name, unicode.IsSpace) != d.Name {
		err = fmt.Errorf("taskdag: name %q holds a line break or starts or ends with white space", d.Name)
	} else {
		_, err = refTopoOrder(d)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", mctoperr.ErrInvalidRequest, err)
	}
	return nil
}

func refCheckShape(d *TaskDAG) error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("taskdag: no nodes")
	}
	for i, n := range d.Nodes {
		if n.ID != i {
			return fmt.Errorf("taskdag: node %d has id %d (ids must be dense and ordered)", i, n.ID)
		}
		if n.Work < 0 {
			return fmt.Errorf("taskdag: node %d has negative work %d", i, n.Work)
		}
	}
	seen := make(map[[2]int]bool, len(d.Edges))
	for i, e := range d.Edges {
		if e.From < 0 || e.From >= len(d.Nodes) || e.To < 0 || e.To >= len(d.Nodes) {
			return fmt.Errorf("taskdag: edge %d (%d->%d) out of range", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskdag: edge %d is a self-loop on %d", i, e.From)
		}
		if e.Volume < 0 {
			return fmt.Errorf("taskdag: edge %d has negative volume %d", i, e.Volume)
		}
		k := [2]int{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("taskdag: duplicate edge %d->%d", e.From, e.To)
		}
		seen[k] = true
	}
	return nil
}

func refHash(d *TaskDAG) uint64 {
	edges := make([]TaskEdge, len(d.Edges))
	copy(edges, d.Edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	var b []byte
	for _, n := range d.Nodes {
		b = b[:0]
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(n.ID), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, n.Work, 10)
		b = append(b, '\n')
		mix(string(b))
	}
	for _, e := range edges {
		b = b[:0]
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, e.Volume, 10)
		b = append(b, '\n')
		mix(string(b))
	}
	return h
}

func refTopoOrder(d *TaskDAG) ([]int, error) {
	if err := refCheckShape(d); err != nil {
		return nil, err
	}
	n := len(d.Nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range d.Edges {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		m := 0
		for i, v := range ready {
			if v < ready[m] {
				m = i
			}
		}
		v := ready[m]
		ready[m] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskdag: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// checkAgainstReference requires d's Validate error text, topological
// order and Hash to equal the reference's.
func checkAgainstReference(t *testing.T, what string, d *TaskDAG) {
	t.Helper()
	order, err := d.TopoOrder()
	wantOrder, wantErr := refTopoOrder(d)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("%s: TopoOrder = %v, %v; reference %v, %v\n%+v", what, order, err, wantOrder, wantErr, d)
	}
	if got, want := fmt.Sprint(d.Validate()), fmt.Sprint(refValidate(d)); got != want {
		t.Fatalf("%s: Validate = %s; reference %s\n%+v", what, got, want, d)
	}
	if got, want := d.Hash(), refHash(d); got != want {
		t.Fatalf("%s: Hash = %x; reference %x\n%+v", what, got, want, d)
	}
}

// TestShapeAndHashMatchReference: on random DAGs whose edges are sorted,
// unsorted, duplicated only after an out-of-order edge (so the duplicate
// index starts late and must still hold the sorted prefix), duplicated
// within the sorted prefix, self-looping, out of range, of negative volume
// or cyclic, Validate, TopoOrder and Hash answer exactly what the
// pre-change code answered.
func TestShapeAndHashMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		d := GenTaskDAG(DAGParams{Layers: 2 + rng.Intn(5), Width: 1 + rng.Intn(6), MinVolume: 0, MaxVolume: 1 << 12}, uint64(trial))
		n, m := len(d.Nodes), len(d.Edges)
		checkAgainstReference(t, "sorted", d)
		if m == 0 {
			continue
		}
		variants := map[string]func(e []TaskEdge) []TaskEdge{
			"shuffled": func(e []TaskEdge) []TaskEdge {
				rng.Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
				return e
			},
			"duplicate after out-of-order": func(e []TaskEdge) []TaskEdge {
				// A late edge moved to the front breaks the order at
				// edge 1; an edge of the sorted prefix repeats after it.
				i := rng.Intn(m)
				e = append([]TaskEdge{e[m-1]}, e...)
				return append(e, TaskEdge{From: e[1+i].From, To: e[1+i].To, Volume: 7})
			},
			"duplicate in order": func(e []TaskEdge) []TaskEdge {
				i := rng.Intn(m)
				return append(e[:i+1], append([]TaskEdge{e[i]}, e[i+1:]...)...)
			},
			"self-loop": func(e []TaskEdge) []TaskEdge {
				v := rng.Intn(n)
				return append(e, TaskEdge{From: v, To: v})
			},
			"out of range": func(e []TaskEdge) []TaskEdge {
				e[rng.Intn(m)].To = n + rng.Intn(3)
				return e
			},
			"negative volume": func(e []TaskEdge) []TaskEdge {
				e[rng.Intn(m)].Volume = -1
				return e
			},
			"cycle": func(e []TaskEdge) []TaskEdge {
				i := rng.Intn(m)
				return append(e, TaskEdge{From: e[i].To, To: e[i].From})
			},
		}
		names := make([]string, 0, len(variants))
		for name := range variants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := &TaskDAG{Name: d.Name, Nodes: d.Nodes, Edges: variants[name](append([]TaskEdge(nil), d.Edges...))}
			checkAgainstReference(t, fmt.Sprintf("trial %d %s", trial, name), v)
		}
	}
}
