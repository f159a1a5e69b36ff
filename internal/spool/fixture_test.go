package spool

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// The files under testdata/ were written by the spool of the commit before
// the Store/kind-table refactor (Ivy, seed 42, reps 51; RR_CORE on 8
// threads; the gen-7 DAG at refine 100) and are never regenerated: they
// pin the file names and bytes every later spool — and /v1/export, see
// cmd/mctopd — must keep producing.

type fixtureEntry struct {
	kind registry.Kind
	key  string
	val  any
}

// fixtureEntries rebuilds the three values the fixtures were written from,
// starting at the golden Ivy description file (itself seed 42, reps 51).
func fixtureEntries(t *testing.T) []fixtureEntry {
	t.Helper()
	top, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", "ivy.mctop"))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	d := graph.GenTaskDAG(graph.DAGParams{}, 7)
	m, err := taskmap.Map(context.Background(), top, d, taskmap.Options{RefineBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	opt := mctopalg.Options{Reps: 51}
	tk := registry.TopoKey("Ivy", 42, opt)
	return []fixtureEntry{
		{registry.KindTopology, tk, top},
		{registry.KindPlacement, "place|" + tk + "|" + pl.PolicyName() + "|8", pl},
		{registry.KindMapping, registry.MapKey("Ivy", 42, opt, d, 100), m},
	}
}

// TestSpoolReproducesParentFixtures: Put → Flush writes exactly the
// committed files — same names, same bytes — for all three kinds.
func TestSpoolReproducesParentFixtures(t *testing.T) {
	all, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var want []os.DirEntry
	for _, de := range all {
		if !de.IsDir() { // testdata/fuzz holds FuzzDecode's seed corpus
			want = append(want, de)
		}
	}
	s := newTestSpool(t)
	for _, e := range fixtureEntries(t) {
		s.Put(registry.NewEntry(e.kind, e.key, e.val))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("spool wrote %d files, fixtures are %d", len(got), len(want))
	}
	for i, de := range want {
		if got[i].Name() != de.Name() {
			t.Errorf("file %d is named %q, fixture %q", i, got[i].Name(), de.Name())
			continue
		}
		wantBytes, err := os.ReadFile(filepath.Join("testdata", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(s.Dir(), de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s differs from the fixture:\n%s\nwant:\n%s", de.Name(), gotBytes, wantBytes)
		}
	}
}

// TestKindTableExhaustive walks every Kind: its table row must name it,
// give it a unique extension and key prefix that map back to it, derive
// the right parent key, and the codec must round-trip a value of the kind
// byte-identically. A kind added without its row, its codec arm or a
// sample here fails this test, not production.
func TestKindTableExhaustive(t *testing.T) {
	samples := map[registry.Kind]fixtureEntry{}
	for _, e := range fixtureEntries(t) {
		samples[e.kind] = e
	}
	topoKey := samples[registry.KindTopology].key
	topologyFor := func(key string) (*topo.Topology, error) {
		if key != topoKey {
			t.Errorf("sidecar references topology %q, want %q", key, topoKey)
		}
		return samples[registry.KindTopology].val.(*topo.Topology), nil
	}
	seenExt := map[string]registry.Kind{}
	for k := registry.Kind(0); k < registry.NumKinds; k++ {
		e, ok := samples[k]
		if !ok {
			t.Fatalf("kind %d (%v) has no sample entry in this test", int(k), k)
		}
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name in the kind table", int(k))
		}
		if other, dup := seenExt[k.Ext()]; dup || k.Ext() == "" {
			t.Errorf("%v: extension %q empty or shared with %v", k, k.Ext(), other)
		}
		seenExt[k.Ext()] = k
		if got, ok := registry.KindOfExt(k.Ext()); !ok || got != k {
			t.Errorf("KindOfExt(%q) = %v, %v; want %v", k.Ext(), got, ok, k)
		}
		if got, ok := registry.KindOfKey(e.key); !ok || got != k {
			t.Errorf("KindOfKey(%q) = %v, %v; want %v", e.key, got, ok, k)
		}
		parent, derived := k.ParentKey(e.key)
		if k == registry.KindTopology {
			if derived {
				t.Errorf("topology key has parent %q", parent)
			}
		} else if !derived || parent != topoKey {
			t.Errorf("%v.ParentKey = %q, %v; want %q", k, parent, derived, topoKey)
		}
		if filepath.Ext(fileName(e.key, k)) != k.Ext() {
			t.Errorf("%v spools as %q, not under %q", k, fileName(e.key, k), k.Ext())
		}

		var first, second bytes.Buffer
		if err := Encode(&first, registry.NewEntry(k, e.key, e.val)); err != nil {
			t.Fatalf("%v: Encode: %v", k, err)
		}
		decoded, err := Decode(bytes.NewReader(first.Bytes()), k, e.key, topologyFor)
		if err != nil {
			t.Fatalf("%v: Decode: %v", k, err)
		}
		if err := Encode(&second, decoded); err != nil {
			t.Fatalf("%v: re-Encode: %v", k, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%v: Decode(Encode(x)) re-encodes differently", k)
		}
		// Every other kind's value, and a mislabeled body, are refused.
		for _, other := range samples {
			if other.kind != k {
				if err := Encode(&bytes.Buffer{}, registry.NewEntry(k, e.key, other.val)); err == nil {
					t.Errorf("Encode accepted a %v value under kind %v", other.kind, k)
				}
			}
		}
		if _, err := Decode(bytes.NewReader(first.Bytes()), k, e.key+"x", topologyFor); err == nil {
			t.Errorf("%v: Decode accepted a body whose key header names another key", k)
		}
	}
}
