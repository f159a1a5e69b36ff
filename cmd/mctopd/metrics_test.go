package main

// GET /metrics contract tests: the exposition is format-valid under
// internal/metrics.ParseText (every line parses, HELP/TYPE precede
// samples, histogram buckets are cumulative with +Inf == _count), and a
// scripted request sequence — cache miss, cache hit, 404, shed 503 —
// moves exactly the counters it should. A parallel-request test gives the
// race detector a workload over the middleware (this package is in CI's
// -race step).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/topo"
)

// scrapeMetrics fetches /metrics and parses it strictly.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	samples, err := metrics.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Key()] = s.Value
	}
	return m
}

func wantSample(t *testing.T, m map[string]float64, key string, want float64) {
	t.Helper()
	if got, ok := m[key]; !ok {
		t.Errorf("sample %s missing", key)
	} else if got != want {
		t.Errorf("%s = %g, want %g", key, got, want)
	}
}

// TestMetricsExpositionValid: a server that has seen traffic serves a
// parseable exposition carrying every family the Operations docs promise.
func TestMetricsExpositionValid(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()
	get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51")
	get(t, ts, "/v1/place?platform=Ivy&seed=42&reps=51&policy=RR_CORE&threads=8")
	get(t, ts, "/v1/nope") // unknown routes fold into route="other"

	m := scrapeMetrics(t, ts)
	for _, name := range []string{
		`mctopd_http_requests_total{code="200",method="GET",route="/v1/topology"}`,
		`mctopd_http_requests_total{code="404",method="GET",route="other"}`,
		`mctopd_http_request_duration_seconds_count{route="/v1/place"}`,
		`mctopd_requests_served_by_tier_total{tier="computed"}`,
		"mctopd_registry_hits_total",
		"mctopd_registry_misses_total",
		"mctopd_registry_inferences_total",
		"mctopd_registry_entries",
		"mctopd_inference_duration_seconds_count",
		"mctopd_placement_duration_seconds_count",
		"mctopd_http_inflight_limit",
		`mctopd_store_gets_total{kind="topology",result="hit",tier="lru"}`,
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// scriptServer is a server with a controllable inference: seeds < 90
// resolve instantly from a description file, seed 99 blocks until release
// — what the script uses to hold the single in-flight slot open.
func scriptServer() (s *server, release func()) {
	releaseCh := make(chan struct{})
	reg := registry.New(registry.Options{
		MaxEntries: 16,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			if seed == 99 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-releaseCh:
				}
			}
			return topo.LoadFile("../../internal/topo/testdata/ivy.mctop")
		},
	})
	var once sync.Once
	return newServerWith(reg, 51, 1), func() { once.Do(func() { close(releaseCh) }) }
}

// TestMetricsScriptedSequence drives one request of each outcome — cold
// miss (computed), warm hit (lru), 404, shed 503 — and asserts the exact
// counter movement of each.
func TestMetricsScriptedSequence(t *testing.T) {
	s, release := scriptServer()
	defer release()
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// 1: cold — registry miss, inference runs, tier "computed".
	if resp, body := get(t, ts, "/v1/topology?platform=Ivy&seed=1"); resp.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp.StatusCode, body)
	}
	// 2: warm — registry hit served by the lru tier.
	if resp, _ := get(t, ts, "/v1/topology?platform=Ivy&seed=1"); resp.StatusCode != 200 {
		t.Fatalf("warm: %d", resp.StatusCode)
	}
	// 3: unknown platform — 404 before any registry lookup.
	if resp, _ := get(t, ts, "/v1/topology?platform=Nope&seed=1"); resp.StatusCode != 404 {
		t.Fatalf("404: %d", resp.StatusCode)
	}
	// 4: occupy the single in-flight slot with a blocked inference, then
	// shed the next request with 503.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/topology?platform=Ivy&seed=99")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := get(t, ts, "/v1/topology?platform=Ivy&seed=1"); resp.StatusCode != 503 {
		t.Fatalf("saturated: %d, want 503", resp.StatusCode)
	}

	// Scrape while saturated — /metrics is exempt from backpressure. The
	// blocked request is mid-flight: its miss and inference start are
	// counted, its completion (200, duration observation) is not.
	m := scrapeMetrics(t, ts)
	wantSample(t, m, `mctopd_http_requests_total{code="200",method="GET",route="/v1/topology"}`, 2)
	wantSample(t, m, `mctopd_http_requests_total{code="404",method="GET",route="/v1/topology"}`, 1)
	wantSample(t, m, `mctopd_http_requests_total{code="503",method="GET",route="/v1/topology"}`, 1)
	wantSample(t, m, "mctopd_http_shed_total", 1)
	wantSample(t, m, `mctopd_requests_served_by_tier_total{tier="computed"}`, 1)
	wantSample(t, m, `mctopd_requests_served_by_tier_total{tier="lru"}`, 1)
	wantSample(t, m, "mctopd_registry_hits_total", 1)
	wantSample(t, m, "mctopd_registry_misses_total", 2)     // cold + the blocked request
	wantSample(t, m, "mctopd_registry_inferences_total", 2) // counted at inference start
	wantSample(t, m, "mctopd_inference_duration_seconds_count", 1)
	wantSample(t, m, "mctopd_http_inflight_requests", 1)
	wantSample(t, m, "mctopd_http_inflight_limit", 1)
	wantSample(t, m, `mctopd_store_gets_total{kind="topology",result="hit",tier="lru"}`, 1)

	// Release and drain; the blocked request completes as a third 200 with
	// a second observed inference duration.
	release()
	<-done
	m = scrapeMetrics(t, ts)
	wantSample(t, m, `mctopd_http_requests_total{code="200",method="GET",route="/v1/topology"}`, 3)
	wantSample(t, m, "mctopd_inference_duration_seconds_count", 2)
	wantSample(t, m, `mctopd_requests_served_by_tier_total{tier="computed"}`, 2)
	wantSample(t, m, "mctopd_http_inflight_requests", 0)
}

// TestMiddlewareParallelRequests hammers mixed routes (scrapes included)
// from many goroutines: the workload the race detector checks the
// middleware, the Served attribution and the scrape-time mirror over.
func TestMiddlewareParallelRequests(t *testing.T) {
	s, release := scriptServer()
	s.inflight = nil // unbounded: this test wants contention, not shedding
	release()
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	paths := []string{
		"/v1/topology?platform=Ivy&seed=1",
		"/v1/topology?platform=Ivy&seed=2",
		"/v1/topology?platform=Nope",
		"/healthz",
		"/v1/stats",
		"/metrics",
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + paths[(id+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	// All 320 storm requests land in the counter (plus this test's own
	// scrapes, so the bound is a floor). The middleware counts a request
	// after its response is written, so the last few may still be landing
	// when their clients have already returned: poll briefly.
	var total float64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m := scrapeMetrics(t, ts) // still parses after the storm
		total = 0
		for key, v := range m {
			if strings.HasPrefix(key, "mctopd_http_requests_total{") {
				total += v
			}
		}
		if total >= 8*40 || time.Now().After(deadline) {
			break
		}
	}
	if total < 8*40 {
		t.Errorf("http_requests_total sums to %g, want >= %d", total, 8*40)
	}
}
