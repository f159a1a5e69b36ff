package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	mctop "repro"
	"repro/internal/mctoperr"
	"repro/internal/topo"
)

// testServer uses few repetitions so the first (cold) request stays fast;
// every later request is a registry hit regardless.
func testServer() *server {
	return newServerWith(mctop.NewRegistry(64), 51, 4*runtime.GOMAXPROCS(0))
}

// TestValidatePlatformAllocs: validating a golden platform name, as every
// warm /v1/place request does, allocates nothing and builds no platform;
// a gen: name only parses, so it allocates a few times whatever its socket
// count (a build of the 1024-socket ring allocates 6,161 times). The answer
// is still the context bound's.
func TestValidatePlatformAllocs(t *testing.T) {
	s := testServer()
	bound := map[string]float64{"gen:mesh:s64:c16:t2": 5, "gen:ring:s1024:c1:t2": 5}
	for _, name := range mctop.Platforms() {
		bound[name] = 0
	}
	for name, most := range bound {
		if got := testing.AllocsPerRun(100, func() {
			if err := s.validatePlatform(name); err != nil {
				t.Fatal(err)
			}
		}); got > most {
			t.Errorf("validatePlatform(%q) allocates %v, want at most %v", name, got, most)
		}
	}
	s.maxContexts = 100
	err := s.validatePlatform("SPARC")
	if !errors.Is(err, mctoperr.ErrTooLarge) ||
		!strings.HasSuffix(err.Error(), `: platform "SPARC" has 256 hardware contexts, over this daemon's limit of 100`) {
		t.Errorf("SPARC over a bound of 100: %v, want ErrTooLarge naming 256 and 100", err)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	return getURL(t, ts.URL+path)
}

// getURL is get for a daemon known only by its URL, such as one run()
// serves.
func getURL(t *testing.T, u string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthzAndLists(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	_, body = get(t, ts, "/v1/platforms")
	var plat struct{ Platforms []string }
	if err := json.Unmarshal(body, &plat); err != nil {
		t.Fatal(err)
	}
	if len(plat.Platforms) != 5 || plat.Platforms[0] != "Ivy" {
		t.Fatalf("platforms = %v", plat.Platforms)
	}

	_, body = get(t, ts, "/v1/policies")
	var pol map[string][]string
	if err := json.Unmarshal(body, &pol); err != nil {
		t.Fatal(err)
	}
	if len(pol) != 1 || len(pol["policies"]) != 12 {
		t.Fatalf("policies body = %s, want only the 12 builtins", body)
	}
}

func TestTopologyEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr topologyResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Contexts != 40 || tr.Sockets != 2 || tr.SMTWays != 2 {
		t.Fatalf("Ivy dims wrong: %+v", tr)
	}
	if tr.Cached {
		t.Error("first query reported cached=true")
	}

	// Second query: same key, must be served from cache.
	_, body = get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51")
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Cached {
		t.Error("second query was not a cache hit")
	}

	// The mctop format is a loadable description file.
	resp, body = get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51&format=mctop")
	if resp.StatusCode != 200 {
		t.Fatalf("mctop format status %d", resp.StatusCode)
	}
	spec, err := topo.Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("served description file does not decode: %v", err)
	}
	if spec.Contexts != 40 {
		t.Fatalf("decoded contexts = %d", spec.Contexts)
	}

	// Errors: missing platform, unknown platform, bad format.
	if resp, _ := get(t, ts, "/v1/topology"); resp.StatusCode != 400 {
		t.Errorf("missing platform: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/topology?platform=Nope&reps=51"); resp.StatusCode != 404 {
		t.Errorf("unknown platform: status %d, want 404 (ErrUnknownPlatform)", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/topology?platform=Ivy&reps=51&format=yaml"); resp.StatusCode != 400 {
		t.Errorf("bad format: status %d, want 400", resp.StatusCode)
	}
}

func TestPlaceEndpointAndStats(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/place?platform=Ivy&seed=42&reps=51&policy=CON_HWC&threads=30")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr placeResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.NThreads != 30 || pr.NCores != 15 {
		t.Fatalf("CON_HWC 30 threads: %+v", pr)
	}
	if len(pr.Contexts) != 30 {
		t.Fatalf("contexts = %v", pr.Contexts)
	}
	if !strings.Contains(pr.Report, "MCTOP_PLACE_CON_HWC") {
		t.Error("report missing policy name")
	}

	if resp, _ := get(t, ts, "/v1/place?platform=Ivy&reps=51&policy=NOPE"); resp.StatusCode != 404 {
		t.Errorf("unknown policy: status %d, want 404 (ErrUnknownPolicy)", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/place?platform=Ivy&reps=51"); resp.StatusCode != 400 {
		t.Errorf("missing policy: status %d, want 400", resp.StatusCode)
	}
	// SPARC has no power measurements: a client-correctable placement
	// error, not a server fault.
	if resp, _ := get(t, ts, "/v1/place?platform=SPARC&reps=51&policy=POWER"); resp.StatusCode != 400 {
		t.Errorf("power policy without power data: status %d, want 400", resp.StatusCode)
	}
	// Unbounded work requests are rejected up front.
	if resp, _ := get(t, ts, "/v1/topology?platform=Ivy&reps=2000000000"); resp.StatusCode != 400 {
		t.Errorf("oversized reps: status %d, want 400", resp.StatusCode)
	}

	// Stats: one inference for Ivy (shared by its place queries) and one
	// for the SPARC power probe; the rejected requests cost nothing.
	_, body = get(t, ts, "/v1/stats")
	var st struct{ Inferences, Entries int64 }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Inferences != 2 {
		t.Errorf("inferences = %d, want 2 (placements must reuse cached topologies)", st.Inferences)
	}
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/place/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestPlaceBatchEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	resp, body := postBatch(t, ts, `{
		"platform": "Ivy", "seed": 42, "reps": 51,
		"requests": [
			{"policy": "CON_HWC", "threads": 30},
			{"policy": "RR_CORE", "threads": 8},
			{"policy": "NOPE", "threads": 4}
		]
	}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Platform != "Ivy" || br.Seed != 42 || len(br.Results) != 3 {
		t.Fatalf("batch response: %+v", br)
	}
	if br.Results[0].NThreads != 30 || br.Results[0].NCores != 15 || br.Results[0].Error != "" {
		t.Fatalf("CON_HWC item: %+v", br.Results[0])
	}
	if br.Results[1].NThreads != 8 || len(br.Results[1].Contexts) != 8 {
		t.Fatalf("RR_CORE item: %+v", br.Results[1])
	}
	if br.Results[2].Error == "" || br.Results[2].Contexts != nil {
		t.Fatalf("unknown policy must fail inline: %+v", br.Results[2])
	}

	// The batch answers must match the single-request endpoint exactly.
	_, single := get(t, ts, "/v1/place?platform=Ivy&seed=42&reps=51&policy=CON_HWC&threads=30")
	var pr placeResponse
	if err := json.Unmarshal(single, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Contexts) != len(br.Results[0].Contexts) {
		t.Fatalf("batch and single disagree: %v vs %v", br.Results[0].Contexts, pr.Contexts)
	}
	for i := range pr.Contexts {
		if pr.Contexts[i] != br.Results[0].Contexts[i] {
			t.Fatalf("batch and single disagree at %d: %v vs %v", i, br.Results[0].Contexts, pr.Contexts)
		}
	}

	// The whole batch (3 placements) plus the single request cost one
	// inference.
	_, body = get(t, ts, "/v1/stats")
	var st struct{ Inferences int64 }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Inferences != 1 {
		t.Errorf("inferences = %d, want 1 (batch must share one topology lookup)", st.Inferences)
	}

	// An absent seed defaults to 42, like the GET endpoints.
	_, body = postBatch(t, ts, `{"platform": "Ivy", "reps": 51, "requests": [{"policy": "SEQUENTIAL"}]}`)
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Seed != 42 {
		t.Errorf("default seed = %d, want 42", br.Seed)
	}

	// Client errors: wrong method, bad JSON, unknown platform, empty and
	// oversized batches, negative threads.
	if resp, _ := get(t, ts, "/v1/place/batch"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on batch: status %d, want 405", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{not json`); resp.StatusCode != 400 {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"platform": "Nope", "requests": [{"policy": "RR_CORE"}]}`); resp.StatusCode != 404 {
		t.Errorf("unknown platform: status %d, want 404 (ErrUnknownPlatform)", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"platform": "Ivy", "requests": []}`); resp.StatusCode != 400 {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"platform": "Ivy", "reps": 50000, "requests": [{"policy": "RR_CORE"}]}`); resp.StatusCode != 400 {
		t.Errorf("oversized reps: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"platform": "Ivy", "requests": [{"policy": "RR_CORE", "threads": -1}]}`); resp.StatusCode != 400 {
		t.Errorf("negative threads: status %d, want 400", resp.StatusCode)
	}
	big := `{"platform": "Ivy", "requests": [` + strings.Repeat(`{"policy": "RR_CORE"},`, 1024) + `{"policy": "RR_CORE"}]}`
	if resp, _ := postBatch(t, ts, big); resp.StatusCode != 413 {
		t.Errorf("oversized batch: status %d, want 413 (ErrTooLarge)", resp.StatusCode)
	}
}
