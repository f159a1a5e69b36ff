package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	} {
		if got := percentile(ds, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile(ds[:1], 0.99); got != 1*time.Millisecond {
		t.Errorf("percentile(single) = %v, want 1ms", got)
	}
}

// TestRunBounded drives the closed loop against a stub daemon for a fixed
// request count and checks the report's accounting.
func TestRunBounded(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Target:      srv.URL,
		Workers:     3,
		Duration:    30 * time.Second, // the request bound fires first
		MaxRequests: 60,
		Mix:         Mix{Topology: 1, Place: 1, Batch: 1, Stream: 1},
		Platforms:   []string{"Ivy"},
		SLO:         SLO{MaxErrorRate: 1e-9, MinThroughput: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 60 {
		t.Errorf("report counts %d requests, want 60", rep.Requests)
	}
	if got := hits.Load(); got != 60 {
		t.Errorf("server saw %d requests, want 60", got)
	}
	if rep.Errors != 0 {
		t.Errorf("unexpected errors: %d", rep.Errors)
	}
	if !rep.OK() {
		t.Errorf("SLO failures on a clean run: %v", rep.SLOFailures)
	}
	var total int64
	for _, rs := range rep.Routes {
		total += rs.Requests
		if rs.P50 > rs.P95 || rs.P95 > rs.P99 || rs.P99 > rs.Max {
			t.Errorf("%s: percentiles not ordered: p50=%v p95=%v p99=%v max=%v",
				rs.Route, rs.P50, rs.P95, rs.P99, rs.Max)
		}
	}
	if total != rep.Requests {
		t.Errorf("route requests sum to %d, want %d", total, rep.Requests)
	}
}

// TestRunCountsErrors: HTTP statuses >= 400 are errors, and the error-rate
// SLO trips.
func TestRunCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rep, err := Run(context.Background(), Config{
		Target:      srv.URL,
		Workers:     2,
		Duration:    30 * time.Second,
		MaxRequests: 20,
		SLO:         SLO{MaxErrorRate: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != rep.Requests || rep.Requests == 0 {
		t.Fatalf("errors = %d of %d requests, want all", rep.Errors, rep.Requests)
	}
	if rep.OK() {
		t.Error("SLO passed despite 100% errors")
	}
}

// TestReportString: the human report names every route and ends with the
// SLO verdict.
func TestReportString(t *testing.T) {
	rep := &Report{
		Target:     "http://x",
		Workers:    2,
		Elapsed:    2 * time.Second,
		Requests:   100,
		Errors:     1,
		Throughput: 50,
		Routes: []RouteStats{
			{Route: RouteTopology, Requests: 60, Mean: 2 * time.Millisecond,
				P50: time.Millisecond, P95: 3 * time.Millisecond, P99: 4 * time.Millisecond},
			{Route: RoutePlace, Requests: 40, Errors: 1, Mean: time.Millisecond,
				P50: time.Millisecond, P95: time.Millisecond, P99: time.Millisecond},
		},
	}
	out := rep.String()
	for _, want := range []string{RouteTopology, RoutePlace, "100 requests", "SLO: pass"} {
		if !strings.Contains(out, want) {
			t.Errorf("human report missing %q:\n%s", want, out)
		}
	}
	rep.SLOFailures = []string{"error rate 0.01 > 0"}
	if out := rep.String(); !strings.Contains(out, "SLO FAIL: error rate 0.01 > 0") {
		t.Errorf("human report missing the SLO failure:\n%s", out)
	}
}

func TestSLOP99Bound(t *testing.T) {
	rep := &Report{
		Requests:   10,
		Throughput: 100,
		Routes: []RouteStats{
			{Route: RouteTopology, Requests: 10, P99: 50 * time.Millisecond},
		},
	}
	fails := checkSLO(SLO{P99: map[string]time.Duration{RouteTopology: 10 * time.Millisecond}}, rep)
	if len(fails) != 1 {
		t.Fatalf("p99 bound did not trip: %v", fails)
	}
	fails = checkSLO(SLO{P99: map[string]time.Duration{RouteTopology: 100 * time.Millisecond}}, rep)
	if len(fails) != 0 {
		t.Fatalf("p99 bound tripped under the limit: %v", fails)
	}
}
