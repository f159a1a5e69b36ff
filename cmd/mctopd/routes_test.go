package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/registry"
	"repro/internal/topo"
)

// TestRouteTable pins, for every route the daemon serves, the label its
// metrics, logs and spans carry and whether it is shed under load, traced,
// and bounded by -request-timeout — the contract that used to be four
// hand-synchronised lists. Unknown paths fold into "other" and the pprof
// subtree into one label, with or without -pprof.
func TestRouteTable(t *testing.T) {
	const serving, observing = true, false
	cases := []struct {
		path, label string
		policy      bool // shed, traced and deadline: today all three agree per route
		logged      bool // only the polled probe and scrape routes stay out of the request log
	}{
		{"/healthz", "/healthz", observing, false},
		{"/readyz", "/readyz", observing, false},
		{"/metrics", "/metrics", observing, false},
		{"/v1/debug/traces", "/v1/debug/traces", observing, true},
		{"/debug/pprof/", "/debug/pprof/", observing, true},
		{"/debug/pprof/heap", "/debug/pprof/", observing, true},
		{"/debug/pprof/profile", "/debug/pprof/", observing, true},
		{"/v1/platforms", "/v1/platforms", serving, true},
		{"/v1/policies", "/v1/policies", serving, true},
		{"/v1/topology", "/v1/topology", serving, true},
		{"/v1/place", "/v1/place", serving, true},
		{"/v1/place/batch", "/v1/place/batch", serving, true},
		{"/v1/map", "/v1/map", serving, true},
		{"/v1/export", "/v1/export", serving, true},
		{"/v1/stats", "/v1/stats", serving, true},
		{"/v1/nope", "other", serving, true},
		{"/v1/place/", "other", serving, true},
		{"/debug/pprof", "other", serving, true},
		{"/", "other", serving, true},
	}
	for _, pprofOn := range []bool{false, true} {
		s := testServer()
		s.pprof = pprofOn
		table := s.routeTable()
		for _, c := range cases {
			rt := table.of(c.path)
			if rt.pattern != c.label {
				t.Errorf("pprof=%v %s: label %q, want %q", pprofOn, c.path, rt.pattern, c.label)
			}
			if rt.shed != c.policy || rt.traced != c.policy || rt.deadline != c.policy {
				t.Errorf("pprof=%v %s: shed=%v traced=%v deadline=%v, want all %v",
					pprofOn, c.path, rt.shed, rt.traced, rt.deadline, c.policy)
			}
			if rt.logged != c.logged {
				t.Errorf("pprof=%v %s: logged=%v, want %v", pprofOn, c.path, rt.logged, c.logged)
			}
		}
		// Every row is reachable under its own pattern: no row shadows another.
		for i := range table {
			if got := table.of(table[i].pattern); got != &table[i] {
				t.Errorf("pattern %q resolves to row %q", table[i].pattern, got.pattern)
			}
		}
		if len(table) != 13 {
			t.Errorf("route table has %d rows; a new route must be added to this test's cases too", len(table))
		}
	}
}

// TestRequestDeadlineAndStreamExemption: with -request-timeout, a buffered
// route's lookup runs under a deadline; the same batch route asked to
// stream (?stream=1) is the one request-dependent exemption.
func TestRequestDeadlineAndStreamExemption(t *testing.T) {
	var sawDeadline sync.Map // seed -> bool
	reg := registry.New(registry.Options{
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			_, has := ctx.Deadline()
			sawDeadline.Store(seed, has)
			return topo.LoadFile("../../internal/topo/testdata/ivy.mctop")
		},
	})
	s := newServerWith(reg, 51, 0)
	s.reqTimeout = time.Minute
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	get(t, ts, "/v1/topology?platform=Ivy&seed=1")
	post("/v1/place/batch?stream=1", `{"platform":"Ivy","seed":2,"requests":[{"policy":"RR_CORE","threads":4}]}`)
	post("/v1/place/batch", `{"platform":"Ivy","seed":3,"requests":[{"policy":"RR_CORE","threads":4}]}`)
	for seed, want := range map[uint64]bool{1: true, 2: false, 3: true} {
		if got, ok := sawDeadline.Load(seed); !ok || got != want {
			t.Errorf("seed %d: inference ran with deadline=%v (seen=%v), want %v", seed, got, ok, want)
		}
	}
}
