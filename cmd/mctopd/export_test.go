package main

// Tests for the /v1/export fleet endpoint: it must serve the exact
// interchange bytes the spool would persist (a #key-headed description
// file or a .place sidecar), resolve cold keys through the registry, and
// reject keys that could never name one of this daemon's cache entries.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mctop "repro"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/topo"
)

func exportPath(key string) string {
	return "/v1/export?key=" + url.QueryEscape(key)
}

func TestExportTopologyMatchesSpoolFormat(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	key := registry.TopoKey("Ivy", 42, opt)
	resp, body := get(t, ts, exportPath(key))
	if resp.StatusCode != 200 {
		t.Fatalf("export: %d %s", resp.StatusCode, body)
	}
	// Decoding binds the body to its key: its #key line must name it.
	top := decodeExport(t, ts, registry.KindTopology, key, body)
	// The body is byte-for-byte what the spool tier would write.
	var want bytes.Buffer
	if err := spool.Encode(&want, registry.NewEntry(registry.KindTopology, key, top)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("exported body differs from the spool encoding of its own topology")
	}
	// And it matches the plain topology endpoint's .mctop rendering,
	// modulo the key header.
	_, mct := get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51&format=mctop")
	if !bytes.HasSuffix(body, mct) {
		t.Fatal("exported description body differs from ?format=mctop")
	}
}

func TestExportPlacementSidecar(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	topoKey := registry.TopoKey("Ivy", 42, opt)
	key := fmt.Sprintf("place|%s|MCTOP_PLACE_RR_CORE|8", topoKey)
	resp, body := get(t, ts, exportPath(key))
	if resp.StatusCode != 200 {
		t.Fatalf("export placement: %d %s", resp.StatusCode, body)
	}
	// Decoding binds the sidecar to key and its topokey to topoKey.
	p := decodeExport(t, ts, registry.KindPlacement, key, body).(*mctop.Placement)
	if p.PolicyName() != "MCTOP_PLACE_RR_CORE" || p.Topology() == nil {
		t.Fatalf("sidecar decodes to policy %q", p.PolicyName())
	}
	if len(p.Contexts()) != 8 {
		t.Fatalf("sidecar has %d contexts, want 8", len(p.Contexts()))
	}
}

// decodeExport decodes an exported body bound to key, resolving a
// sidecar's topology through the same daemon's /v1/export.
func decodeExport(t *testing.T, ts *httptest.Server, kind registry.Kind, key string, body []byte) any {
	t.Helper()
	e, err := spool.Decode(bytes.NewReader(body), kind, key, func(topoKey string) (*topo.Topology, error) {
		_, b := get(t, ts, exportPath(topoKey))
		e, err := spool.Decode(bytes.NewReader(b), registry.KindTopology, topoKey, nil)
		if err != nil {
			return nil, err
		}
		return e.Val.(*topo.Topology), nil
	})
	if err != nil {
		t.Fatalf("exported %v does not decode under its key: %v", kind, err)
	}
	return e.Val
}

func TestExportRejectsBadKeys(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	good := registry.TopoKey("Ivy", 42, opt)
	forked := func(key string) string { return strings.Replace(key, ",fefalse,", ",fetrue,", 1) }
	cases := []struct {
		name   string
		path   string
		status int
	}{
		{"missing key", "/v1/export", 400},
		{"garbage key", exportPath("not-a-key"), 404},
		{"truncated key", exportPath("topo|Ivy|42"), 404},
		{"non-canonical key", exportPath(good + " "), 404},
		{"unknown platform", exportPath(registry.TopoKey("VAX", 1, opt)), 404},
		{"oversized reps", exportPath(registry.TopoKey("Ivy", 42, mctop.NewOptions(mctop.WithReps(99999)))), 400},
		{"bad embedded topo key", exportPath("place|topo|junk|MCTOP_PLACE_RR_CORE|8"), 404},
		{"unknown policy", exportPath("place|" + good + "|NO_SUCH_POLICY|8"), 404},
		// The removed forked-enrichment bit: a fetrue key fails every
		// parser with ErrInvalidRequest, which each kind maps as it maps
		// any other key this daemon could never have emitted.
		{"fetrue topology key", exportPath(forked(good)), 404},
		{"fetrue placement key", exportPath("place|" + forked(good) + "|MCTOP_PLACE_RR_CORE|8"), 404},
		{"fetrue mapping key", exportPath(forked(registry.MapKey("Ivy", 42, opt, graph.GenTaskDAG(graph.DAGParams{}, 7), 100))), 400},
		// The Section 3.5 parameters are constants: a key naming another
		// retry budget names nothing.
		{"mr1 topology key", exportPath(strings.Replace(good, ",mr3,", ",mr1,", 1)), 404},
	}
	for _, c := range cases {
		resp, body := get(t, ts, c.path)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
	}
}

// TestExportServesParentFixtureBytes: /v1/export answers every cached kind
// with exactly the bytes the spool fixtures hold (internal/spool/testdata,
// written by the commit before the Store/kind-table refactor) — the fleet
// wire format is pinned from outside, not just against today's encoder.
func TestExportServesParentFixtureBytes(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	// The fixture mapping is of the gen-7 DAG at refine 100; mappings are
	// exported warm-only, so compute it first.
	body := mapBody(t, mapRequest{
		topoParams: topoParams{Platform: "Ivy"}, // seed 42 and the test server's reps 51 are the defaults
		Refine:     100,
		DAG:        graph.GenTaskDAG(graph.DAGParams{}, 7),
	})
	if resp, raw := postMap(t, ts, body); resp.StatusCode != 200 {
		t.Fatalf("map: %d %s", resp.StatusCode, raw)
	}

	dir := filepath.Join("..", "..", "internal", "spool", "testdata")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, f := range files {
		if f.IsDir() { // testdata/fuzz holds the codec's fuzz seed corpus
			continue
		}
		want, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := bytes.Cut(want, []byte("\n"))
		key, ok := strings.CutPrefix(string(header), "#key ")
		if !ok {
			t.Fatalf("%s has no #key header", f.Name())
		}
		resp, got := get(t, ts, exportPath(key))
		if resp.StatusCode != 200 {
			t.Fatalf("export %s: %d %s", f.Name(), resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("export of %q differs from fixture %s:\n%s\nwant:\n%s", key, f.Name(), got, want)
		}
		kinds[filepath.Ext(f.Name())] = true
	}
	if len(kinds) != int(registry.NumKinds) {
		t.Fatalf("fixtures cover extensions %v, want one per kind (%d)", kinds, registry.NumKinds)
	}
}
