package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestTopologyGeneratedPlatform serves a generated gen: platform end to
// end: the daemon resolves the spec through sim.ByName, infers with the
// sampled mode requested per query, and a repeat request is a cache hit
// under the extended option key.
func TestTopologyGeneratedPlatform(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	const path = "/v1/topology?platform=gen:ring:s6:c2:t2&seed=7&sampling=1"
	resp, body := get(t, ts, path)
	if resp.StatusCode != 200 {
		t.Fatalf("generated topology: %d %s", resp.StatusCode, body)
	}
	var tr struct {
		Contexts int  `json:"contexts"`
		Sockets  int  `json:"sockets"`
		SMTWays  int  `json:"smt_ways"`
		Cached   bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Contexts != 24 || tr.Sockets != 6 || tr.SMTWays != 2 {
		t.Fatalf("gen:ring:s6:c2:t2 = %+v, want 24 contexts, 6 sockets, SMT 2", tr)
	}
	if tr.Cached {
		t.Fatal("first request reported cached")
	}
	resp, body = get(t, ts, path)
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !tr.Cached {
		t.Fatalf("repeat request: %d cached=%v, want a cache hit", resp.StatusCode, tr.Cached)
	}

	// Same platform without sampling is a different configuration — it must
	// not alias the sampled entry's cache key.
	resp, body = get(t, ts, "/v1/topology?platform=gen:ring:s6:c2:t2&seed=7&sampling=0")
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || tr.Cached {
		t.Fatalf("sampling=0 request: %d cached=%v, want a cold miss", resp.StatusCode, tr.Cached)
	}
}

// TestTopologyGeneratedErrors sorts the gen: failure modes: a malformed
// spec is the client's bad request (400), not an unknown platform; an
// unknown name stays 404; a bad sampling value is 400.
func TestTopologyGeneratedErrors(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/topology?platform=gen:torus:s4:c2:t1", 400}, // unknown kind
		{"/v1/topology?platform=gen:ring:s0:c2:t1", 400},  // zero sockets
		{"/v1/topology?platform=gen:ring:c2:t1", 400},     // missing field
		{"/v1/topology?platform=NoSuchMachine", 404},      // not a gen: spec
		{"/v1/topology?platform=Ivy&seed=1&sampling=maybe", 400},
		{"/v1/topology?platform=gen:ring:s-2:c2:t1", 400},               // negative sockets
		{"/v1/topology?platform=gen:mesh:s4:c2:t1:g1", 400},             // generators on a mesh
		{"/v1/topology?platform=gen:ring:s4:c2:t1:g1", 400},             // generators on a ring
		{"/v1/topology?platform=gen:circulant:s8:c2:t1:g0", 400},        // generator below 1
		{"/v1/topology?platform=gen:circulant:s8:c2:t1:g5", 400},        // generator above Sockets/2
		{"/v1/topology?platform=gen:circulant:s8:c2:t1:g2", 400},        // disconnected: gcd 2
		{"/v1/place?platform=gen:circulant:s9:c2:t1:g3&threads=2", 400}, // disconnected: gcd 3
	} {
		resp, body := get(t, ts, tc.path)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.path, resp.StatusCode, body, tc.want)
		}
	}

	// Over the generator's cap is a 400 too where no -max-contexts bound
	// refuses it first (413 under the default, TestDefaultMaxContexts…).
	s := testServer()
	s.maxContexts = 0
	unbounded := httptest.NewServer(s.routes())
	defer unbounded.Close()
	if resp, body := get(t, unbounded, "/v1/topology?platform=gen:mesh:s1025:c1024:t1"); resp.StatusCode != 400 {
		t.Errorf("over the generator cap: status %d (%s), want 400", resp.StatusCode, body)
	}
	// So is a spec under the context cap whose Cores² matrix is 8 TB: it
	// is refused from its name, never generated.
	if resp, body := get(t, unbounded, "/v1/topology?platform=gen:ring:s1:c1048576:t1"); resp.StatusCode != 400 {
		t.Errorf("over the generator's matrix cap: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestMaxContextsRefusal pins the -max-contexts contract: a platform over
// the bound is 413, the error names both sizes, and — unlike the 503/504
// refusals — there is no Retry-After, because retrying the same platform
// against the same daemon can never succeed.
func TestMaxContextsRefusal(t *testing.T) {
	s := testServer()
	s.maxContexts = 100
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/topology?platform=gen:circulant:s64:c8:t2") // 1024 contexts
	if resp.StatusCode != 413 {
		t.Fatalf("over-bound topology: %d %s, want 413", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("413 carried Retry-After %q; a too-large platform is not retryable", got)
	}
	if !strings.Contains(string(body), "1024") || !strings.Contains(string(body), "100") {
		t.Fatalf("413 body %s does not name the sizes", body)
	}

	// The bound applies to every platform-naming route, including batch
	// placement and export keys, and platforms under it still serve.
	resp, _ = get(t, ts, "/v1/place?platform=gen:circulant:s64:c8:t2&policy=RR_CORE&threads=4")
	if resp.StatusCode != 413 {
		t.Fatalf("over-bound place: %d, want 413", resp.StatusCode)
	}
	resp, body = get(t, ts, "/v1/topology?platform=gen:ring:s6:c2:t2&seed=1")
	if resp.StatusCode != 200 {
		t.Fatalf("under-bound topology: %d %s, want 200", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/v1/topology?platform=Ivy&seed=1")
	if resp.StatusCode != 200 {
		t.Fatalf("golden platform under bound: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestDefaultMaxContextsRefusesHugePlatform: with no -max-contexts flag the
// daemon is still bounded. A 2²⁰-context gen: platform would ask step 1
// for two dense 2²⁰×2²⁰ int64 tables; the default refuses it from the
// parsed dimensions — before the platform is even generated — with a 413
// and no Retry-After, the daemon stays healthy, and a 1024-context
// platform is still served.
func TestDefaultMaxContextsRefusesHugePlatform(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	resp, body := get(t, ts, "/v1/topology?platform=gen:mesh:s1024:c1024:t1")
	if resp.StatusCode != 413 {
		t.Fatalf("2²⁰-context topology: %d %s, want 413", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("413 carried Retry-After %q", got)
	}
	if !strings.Contains(string(body), "1048576") || !strings.Contains(string(body), "2048") {
		t.Fatalf("413 body %s does not name the sizes", body)
	}
	// A spec whose dimensions overflow int must not wrap under the bound.
	resp, body = get(t, ts, "/v1/topology?platform=gen:mesh:s2147483648:c2147483648:t4")
	if resp.StatusCode != 413 {
		t.Fatalf("overflowing spec: %d %s, want 413", resp.StatusCode, body)
	}
	if resp, body = get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz after the refusals: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts, "/v1/topology?platform=gen:circulant:s64:c8:t2&reps=5&sampling=1") // 1024 contexts
	if resp.StatusCode != 200 {
		t.Fatalf("1024-context topology under the default bound: %d %s, want 200", resp.StatusCode, body)
	}
}
