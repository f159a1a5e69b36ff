package main

// Tests for POST /v1/map: single and batch mapping answers, the
// memoization contract (a repeated DAG is a cache hit — zero extra
// mapping computes on /v1/stats), the error statuses, and the /v1/export
// branch that serves warm mappings as .map sidecar bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mctop "repro"
	"repro/internal/graph"
	"repro/internal/registry"
)

// mapTestDAG is a small diamond: 0 fans out to 1 and 2, which join at 3.
// Comm volumes are large enough that the mapper's answer is not trivially
// "anywhere".
func mapTestDAG() *mctop.TaskDAG {
	return &mctop.TaskDAG{
		Name: "diamond",
		Nodes: []graph.TaskNode{
			{ID: 0, Work: 1000}, {ID: 1, Work: 4000},
			{ID: 2, Work: 4000}, {ID: 3, Work: 1000},
		},
		Edges: []graph.TaskEdge{
			{From: 0, To: 1, Volume: 1 << 16},
			{From: 0, To: 2, Volume: 1 << 16},
			{From: 1, To: 3, Volume: 1 << 16},
			{From: 2, To: 3, Volume: 1 << 16},
		},
	}
}

func postMap(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func mapBody(t *testing.T, req mapRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mappingsComputed(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	_, body := get(t, ts, "/v1/stats")
	var st struct{ Mappings int64 }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.Mappings
}

func TestMapSingleAndWarmCache(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	d := mapTestDAG()
	body := mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, Refine: 200, DAG: d})
	resp, raw := postMap(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("map: %d %s", resp.StatusCode, raw)
	}
	var mr mapResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Platform != "Ivy" || mr.Seed != 42 || mr.Result == nil {
		t.Fatalf("response = %+v", mr)
	}
	res := mr.Result
	if res.DAG != "diamond" || res.Nodes != 4 || res.Edges != 4 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Assignment) != 4 || res.CostCycles <= 0 || res.Algo == "" {
		t.Fatalf("result = %+v", res)
	}
	if res.DAGHash != fmt.Sprintf("%016x", d.Hash()) {
		t.Fatalf("dag_hash = %q, want the canonical hash of the posted DAG", res.DAGHash)
	}

	if got := mappingsComputed(t, ts); got != 1 {
		t.Fatalf("after first map: %d computes, want 1", got)
	}

	// The same DAG under a different name must be a cache hit: the key
	// carries the canonical hash, not the name.
	renamed := mapTestDAG()
	renamed.Name = "diamond-again"
	resp2, raw2 := postMap(t, ts, mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, Refine: 200, DAG: renamed}))
	if resp2.StatusCode != 200 {
		t.Fatalf("second map: %d %s", resp2.StatusCode, raw2)
	}
	var mr2 mapResponse
	if err := json.Unmarshal(raw2, &mr2); err != nil {
		t.Fatal(err)
	}
	if mr2.Result.CostCycles != res.CostCycles {
		t.Fatalf("warm cost %d != cold cost %d", mr2.Result.CostCycles, res.CostCycles)
	}
	if fmt.Sprint(mr2.Result.Assignment) != fmt.Sprint(res.Assignment) {
		t.Fatalf("warm assignment %v != cold %v", mr2.Result.Assignment, res.Assignment)
	}
	if got := mappingsComputed(t, ts); got != 1 {
		t.Fatalf("warm request recomputed: %d computes, want 1", got)
	}
}

func TestMapBatchInlineErrors(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	good := mapTestDAG()
	// Edge references a node that does not exist: structurally invalid,
	// rejected by the mapper, reported inline without failing the batch.
	bad := &mctop.TaskDAG{
		Name:  "dangling",
		Nodes: []graph.TaskNode{{ID: 0, Work: 100}},
		Edges: []graph.TaskEdge{{From: 0, To: 7, Volume: 64}},
	}
	resp, raw := postMap(t, ts, mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, DAGs: []*mctop.TaskDAG{good, bad}}))
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var mr mapResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(mr.Results))
	}
	if mr.Results[0].Error != "" || len(mr.Results[0].Assignment) != 4 {
		t.Fatalf("good item = %+v", mr.Results[0])
	}
	if mr.Results[1].Error == "" || mr.Results[1].DAG != "dangling" {
		t.Fatalf("bad item = %+v", mr.Results[1])
	}
}

func TestMapErrorStatuses(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	okDAG := `{"nodes":[{"id":0,"work":100}]}`
	bigNodes := make([]string, maxMapNodes+1)
	for i := range bigNodes {
		bigNodes[i] = fmt.Sprintf(`{"id":%d,"work":1}`, i)
	}
	bigDAGs := make([]string, maxMapDAGs+1)
	for i := range bigDAGs {
		bigDAGs[i] = okDAG
	}

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", `{`, 400},
		{"unknown field", `{"platform":"Ivy","dag":` + okDAG + `,"bogus":1}`, 400},
		{"unknown platform", `{"platform":"VAX","dag":` + okDAG + `}`, 404},
		{"neither dag nor dags", `{"platform":"Ivy"}`, 400},
		{"both dag and dags", `{"platform":"Ivy","dag":` + okDAG + `,"dags":[` + okDAG + `]}`, 400},
		{"negative refine", `{"platform":"Ivy","refine":-1,"dag":` + okDAG + `}`, 400},
		{"oversized refine", fmt.Sprintf(`{"platform":"Ivy","refine":%d,"dag":%s}`, maxMapRefine+1, okDAG), 400},
		{"cyclic dag", `{"platform":"Ivy","dag":{"nodes":[{"id":0,"work":1},{"id":1,"work":1}],` +
			`"edges":[{"from":0,"to":1,"volume":64},{"from":1,"to":0,"volume":64}]}}`, 400},
		// A name is a value of the mapping's .map file: one holding a
		// line break could smuggle in that file's directives.
		{"name with a line break", `{"platform":"Ivy","dag":{"name":"x\ndag e4de9efe3ee067b3 2 1\nalgo evil\nend",` +
			`"nodes":[{"id":0,"work":1000},{"id":1,"work":1000}],"edges":[{"from":0,"to":1,"volume":4096}]}}`, 400},
		{"name with trailing white space", `{"platform":"Ivy","dag":{"name":"x ","nodes":[{"id":0,"work":1}]}}`, 400},
		{"too many nodes", `{"platform":"Ivy","dag":{"nodes":[` + strings.Join(bigNodes, ",") + `]}}`, 413},
		{"too many dags", `{"platform":"Ivy","dags":[` + strings.Join(bigDAGs, ",") + `]}`, 413},
	}
	for _, c := range cases {
		resp, body := postMap(t, ts, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
	}

	resp, _ := get(t, ts, "/v1/map")
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/map = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

func TestExportMappingSidecar(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	d := mapTestDAG()
	opt := mctop.NewOptions(mctop.WithReps(51))
	key := registry.MapKey("Ivy", 42, opt, d, 200)

	// Cold: a mapping key names a DAG only by hash, so the origin cannot
	// recompute it from the key — an honest 404, not a silent compute.
	resp, _ := get(t, ts, exportPath(key))
	if resp.StatusCode != 404 {
		t.Fatalf("cold mapping export = %d, want 404", resp.StatusCode)
	}

	// Malformed mapping keys are a 400: they could never name an entry.
	resp, _ = get(t, ts, exportPath("map|topo|Ivy|42|r51|deadbeef"))
	if resp.StatusCode != 400 {
		t.Fatalf("malformed mapping export = %d, want 400", resp.StatusCode)
	}

	// Warm the cache through the public endpoint, then export.
	if r, raw := postMap(t, ts, mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, Refine: 200, DAG: d})); r.StatusCode != 200 {
		t.Fatalf("map: %d %s", r.StatusCode, raw)
	}
	resp, body := get(t, ts, exportPath(key))
	if resp.StatusCode != 200 {
		t.Fatalf("warm mapping export = %d %s", resp.StatusCode, body)
	}
	// Decoding binds the sidecar's DAG identity to the key's.
	m := decodeExport(t, ts, registry.KindMapping, key, body).(*mctop.Mapping)
	if m.DAGHash() != d.Hash() || m.NumNodes() != 4 {
		t.Fatalf("sidecar decodes to DAG %016x with %d nodes", m.DAGHash(), m.NumNodes())
	}
	if len(m.Assignment()) != 4 || m.Cost() <= 0 {
		t.Fatalf("sidecar decodes to assignment %v, cost %d", m.Assignment(), m.Cost())
	}
}

// TestMapHonorsSamplingDefault: on a -sampling daemon, /v1/map keys its
// topology the way /v1/topology does, so a mapping on a platform large
// enough for sampled mode reuses the sampled topology instead of running a
// second, exhaustive inference beside it — and a body's "sampling": false
// overrides the daemon default like ?sampling=0 does.
func TestMapHonorsSamplingDefault(t *testing.T) {
	s := testServer()
	s.defaultSampling = true
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const platform = "gen:mesh:s4:c8:t2" // 64 contexts: the sampled mode's floor
	if resp, body := get(t, ts, "/v1/topology?platform="+platform); resp.StatusCode != 200 {
		t.Fatalf("topology: %d %s", resp.StatusCode, body)
	}
	inferences := func() int64 {
		t.Helper()
		_, body := get(t, ts, "/v1/stats")
		var st struct{ Inferences int64 }
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st.Inferences
	}
	req := mapRequest{topoParams: topoParams{Platform: platform}, DAG: mapTestDAG()}
	if resp, raw := postMap(t, ts, mapBody(t, req)); resp.StatusCode != 200 {
		t.Fatalf("map: %d %s", resp.StatusCode, raw)
	}
	if n := inferences(); n != 1 {
		t.Fatalf("%d inferences after /v1/topology + /v1/map on a -sampling daemon, want 1", n)
	}

	off := false
	req.Sampling = &off
	if resp, raw := postMap(t, ts, mapBody(t, req)); resp.StatusCode != 200 {
		t.Fatalf(`map with "sampling": false: %d %s`, resp.StatusCode, raw)
	}
	if n := inferences(); n != 2 {
		t.Fatalf(`%d inferences after a "sampling": false map, want 2 (its own exhaustive topology)`, n)
	}
}
