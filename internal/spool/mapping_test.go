package spool

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// testMapping computes a small mapping on the shared test topology.
func testMapping(t *testing.T) (*taskmap.Mapping, string) {
	t.Helper()
	d := graph.GenTaskDAG(graph.DAGParams{}, 7)
	m, err := taskmap.Map(context.Background(), testTopo(), d, taskmap.Options{RefineBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	key := registry.MapKey("Ivy", 1, mctopalg.Options{Reps: 51}, d, 100)
	return m, key
}

func encodeMapping(t *testing.T, key string, m *taskmap.Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, registry.NewEntry(registry.KindMapping, key, m)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// onTestTopo resolves every sidecar's topology to the shared test topology.
func onTestTopo(string) (*topo.Topology, error) { return testTopo(), nil }

func TestMapSidecarCodecRoundTrip(t *testing.T) {
	m, key := testMapping(t)
	raw := encodeMapping(t, key, m)
	e, err := Decode(bytes.NewReader(raw), registry.KindMapping, key, onTestTopo)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Val.(*taskmap.Mapping)
	if got.DAGName() != m.DAGName() || got.DAGHash() != m.DAGHash() || got.NumNodes() != m.NumNodes() ||
		got.NumEdges() != m.NumEdges() || got.Algo() != m.Algo() || got.Cost() != m.Cost() ||
		!slices.Equal(got.Assignment(), m.Assignment()) {
		t.Fatal("decoded sidecar does not match the mapping")
	}
	if !bytes.Equal(encodeMapping(t, key, got), raw) {
		t.Fatal("reconstructed mapping does not re-encode byte-identically")
	}
}

func TestDecodeRejectsMalformedMapping(t *testing.T) {
	m, key := testMapping(t)
	topoKey, _ := registry.KindMapping.ParentKey(key)
	good := string(encodeMapping(t, key, m))
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad magic", strings.Replace(good, mapMagic, "mctop-place 1", 1)},
		{"missing end", strings.Replace(good, "end\n", "", 1)},
		{"missing topokey", strings.Replace(good, "topokey "+topoKey+"\n", "", 1)},
		{"missing dag", regexReplaceLine(good, "dag ")},
		{"missing algo", regexReplaceLine(good, "algo ")},
		{"missing cost", regexReplaceLine(good, "cost ")},
		{"missing assign", regexReplaceLine(good, "assign")},
		{"junk directive", strings.Replace(good, "end\n", "bogus 1\nend\n", 1)},
		{"bad assign ctx", strings.Replace(good, "assign ", "assign x", 1)},
		{"negative cost", regexSwapLine(good, "cost ", "cost -5")},
		{"bad hash", regexSwapLine(good, "dag ", "dag zzzz 3 2")},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.in), registry.KindMapping, key, onTestTopo); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// regexReplaceLine drops the first line starting with prefix.
func regexReplaceLine(s, prefix string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	dropped := false
	for _, l := range lines {
		if !dropped && strings.HasPrefix(l, prefix) {
			dropped = true
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// regexSwapLine replaces the first line starting with prefix.
func regexSwapLine(s, prefix, repl string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, prefix) {
			lines[i] = repl
			break
		}
	}
	return strings.Join(lines, "\n")
}

func TestMappingRoundTripThroughSpool(t *testing.T) {
	m, key := testMapping(t)
	topoKey, _ := registry.KindMapping.ParentKey(key)

	s := newTestSpool(t)
	// Put only the mapping: the durable-topology invariant must persist
	// the referenced topology alongside it.
	s.Put(registry.NewEntry(registry.KindMapping, key, m))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after one mapping put, want 2 (mapping + topology)", s.Len())
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), fileName(topoKey, registry.KindTopology))); err != nil {
		t.Fatalf("referenced topology not persisted: %v", err)
	}

	v, ok := get(s, registry.KindMapping, key)
	if !ok {
		t.Fatal("spooled mapping missed")
	}
	if got := encodeMapping(t, key, v.(*taskmap.Mapping)); !bytes.Equal(got, encodeMapping(t, key, m)) {
		t.Fatal("spooled mapping is not byte-identical to the original")
	}

	// Fresh process: warm-start scan picks the sidecar up.
	s2, err := New(s.Dir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("fresh spool scanned %d entries, want 2", s2.Len())
	}
	v2, ok := get(s2, registry.KindMapping, key)
	if !ok {
		t.Fatal("fresh spool missed the scanned mapping")
	}
	if got := encodeMapping(t, key, v2.(*taskmap.Mapping)); !bytes.Equal(got, encodeMapping(t, key, m)) {
		t.Fatal("fresh-spool mapping is not byte-identical to the original")
	}

	st := s2.Stats()[0]
	if st.Mappings != 1 || st.Topologies != 1 {
		t.Fatalf("stats = %+v, want 1 mapping + 1 topology", st)
	}
	ks, ok := st.Kinds[registry.KindMapping.String()]
	if !ok || ks.Entries != 1 || ks.Hits != 1 {
		t.Fatalf("per-kind mapping stats = %+v", st.Kinds)
	}
}

func TestCorruptMapSidecarQuarantined(t *testing.T) {
	m, key := testMapping(t)

	s := newTestSpool(t)
	s.Put(registry.NewEntry(registry.KindMapping, key, m))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sidecar body (keep the key header and magic line so scan
	// still indexes it) and reopen: the Get must degrade to a miss and
	// quarantine.
	path := filepath.Join(s.Dir(), fileName(key, registry.KindMapping))
	if err := os.WriteFile(path, []byte("#key "+key+"\n"+mapMagic+"\ngarbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := New(s.Dir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := get(s2, registry.KindMapping, key); ok {
		t.Fatal("corrupt mapping sidecar served")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir, fileName(key, registry.KindMapping))); err != nil {
		t.Fatalf("corrupt sidecar not quarantined: %v", err)
	}
	// A second Get is a clean miss, not another decode attempt.
	if _, ok := get(s2, registry.KindMapping, key); ok {
		t.Fatal("quarantined mapping served")
	}
}
