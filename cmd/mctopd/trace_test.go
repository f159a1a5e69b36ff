package main

// The span plane's daemon-level contract: scrape traffic never creates
// spans, request IDs are honored and echoed on every response (shed 503s
// included), a two-daemon fleet stitches one trace across the edge/origin
// hop via traceparent, sampled inferences attribute their time to the
// algorithm's phases, and under fault injection every started span ends
// exactly once while the ring stays bounded.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	mctop "repro"
	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/spool"
	"repro/internal/trace"
)

// tracedServer is newServerWith plus an armed (rate-1) tracer, the shape
// run() builds for -trace-sample 1.
func tracedServer(reg *mctop.Registry, seed uint64) *server {
	s := newServerWith(reg, 51, 4*runtime.GOMAXPROCS(0))
	s.tracer = trace.New(trace.WithSampleRate(1), trace.WithSeed(seed))
	return s
}

func findTrace(traces []trace.TraceData, spanName string) *trace.TraceData {
	for i := range traces {
		for j := range traces[i].Spans {
			if traces[i].Spans[j].Name == spanName {
				return &traces[i]
			}
		}
	}
	return nil
}

func findSpan(td *trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

func attrValue(sp *trace.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestScrapeRoutesCreateNoSpans pins the exemption list: probe, metrics
// and trace-dump traffic must not occupy ring slots or skew sampling even
// with the tracer wide open, while a real API request does open spans.
func TestScrapeRoutesCreateNoSpans(t *testing.T) {
	s := tracedServer(mctop.NewRegistry(16), 1)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/debug/traces"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	if st := s.tracer.Stats(); st.Started != 0 {
		t.Fatalf("scrape traffic started %d spans, want 0", st.Started)
	}

	if resp, _ := get(t, ts, "/v1/platforms"); resp.StatusCode != 200 {
		t.Fatalf("/v1/platforms = %d", resp.StatusCode)
	}
	if st := s.tracer.Stats(); st.Started == 0 {
		t.Fatal("an API request started no spans with the tracer armed")
	}
}

// TestRequestIDEchoed covers the X-Request-ID contract: an inbound ID is
// honored verbatim, an absent one is minted, and — instrument being the
// outermost layer — even a shed 503 carries one.
func TestRequestIDEchoed(t *testing.T) {
	s := newServerWith(mctop.NewRegistry(16), 51, 1)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/platforms", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Fatalf("inbound request ID not echoed: got %q", got)
	}

	resp, _ = get(t, ts, "/v1/platforms")
	if got := resp.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("generated request ID %q is not 16 hex digits", got)
	}

	// Occupy the single in-flight slot so the next request is shed; the
	// 503 must still carry a request ID.
	s.inflight <- struct{}{}
	resp, _ = get(t, ts, "/v1/platforms")
	<-s.inflight
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("shed 503 carries no X-Request-ID")
	}
}

// TestFleetTraceStitching is the tentpole's acceptance test: a cold
// topology request through a traced edge produces one trace ID spanning
// both daemons — the edge's root and its remote.fetch span, and on the
// origin a root marked remote whose parent IS that fetch span, with the
// tier-traversal spans beneath it.
func TestFleetTraceStitching(t *testing.T) {
	originSrv := tracedServer(mctop.NewRegistry(64), 2)
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	rm := remote.New(origin.URL, remote.WithLogf(t.Logf))
	reg := registry.New(registry.Options{MaxEntries: 64, Tiers: []registry.Store{rm}})
	edgeSrv := tracedServer(reg, 3)
	edge := httptest.NewServer(edgeSrv.routes())
	defer edge.Close()

	if resp, body := get(t, edge, "/v1/topology?platform=Ivy&seed=4242"); resp.StatusCode != 200 {
		t.Fatalf("edge topology: %d %s", resp.StatusCode, body)
	}

	edgeTraces := edgeSrv.tracer.Snapshot()
	et := findTrace(edgeTraces, "remote.fetch")
	if et == nil {
		t.Fatalf("no edge trace contains a remote.fetch span (have %d traces)", len(edgeTraces))
	}
	if et.Spans[0].Name != "http /v1/topology" || et.Spans[0].Remote {
		t.Fatalf("edge root = %q (remote=%v), want local http /v1/topology root",
			et.Spans[0].Name, et.Spans[0].Remote)
	}
	lookup := findSpan(et, "registry.lookup")
	if lookup == nil {
		t.Fatal("edge trace has no registry.lookup span")
	}
	if tier := attrValue(lookup, "tier"); tier != "remote" {
		t.Fatalf("edge lookup tier = %q, want remote", tier)
	}
	fetch := findSpan(et, "remote.fetch")

	originTraces := originSrv.tracer.Snapshot()
	var ot *trace.TraceData
	for i := range originTraces {
		if originTraces[i].TraceID == et.TraceID {
			ot = &originTraces[i]
			break
		}
	}
	if ot == nil {
		t.Fatalf("origin has no trace with the edge's trace ID %s", et.TraceID)
	}
	root := &ot.Spans[0]
	if root.Name != "http /v1/export" || !root.Remote {
		t.Fatalf("origin root = %q (remote=%v), want remote http /v1/export", root.Name, root.Remote)
	}
	if root.Parent != fetch.SpanID {
		t.Fatalf("origin root parent = %s, want the edge's fetch span %s", root.Parent, fetch.SpanID)
	}
	if findSpan(ot, "registry.lookup") == nil || findSpan(ot, "registry.infer") == nil {
		t.Fatalf("origin trace lacks the tier-traversal spans: %+v", ot.Spans)
	}
}

// TestInferencePhaseSpans asserts a sampled inference attributes its time
// to the algorithm's phases — pilots, classify, verify, fill — as spans of
// the request's trace, never one span per measured pair.
func TestInferencePhaseSpans(t *testing.T) {
	s := tracedServer(mctop.NewRegistry(16), 4)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// 64 contexts: the smallest size the sampled mode accepts.
	resp, body := get(t, ts, "/v1/topology?platform=gen:ring:s8:c4:t2&seed=1&reps=5&sampling=1")
	if resp.StatusCode != 200 {
		t.Fatalf("sampled topology: %d %s", resp.StatusCode, body)
	}
	td := findTrace(s.tracer.Snapshot(), "infer.pilots")
	if td == nil {
		t.Fatal("no trace contains an infer.pilots span")
	}
	for _, phase := range []string{"infer.pilots", "infer.classify", "infer.verify", "infer.fill"} {
		if findSpan(td, phase) == nil {
			t.Fatalf("trace lacks the %s phase span", phase)
		}
	}
	if n := len(td.Spans); n > 16 {
		t.Fatalf("sampled inference emitted %d spans — per-pair spans would blow the hot loop", n)
	}
	pilots := findSpan(td, "infer.pilots")
	if attrValue(pilots, "pairs") == "" || attrValue(pilots, "pilots") == "" {
		t.Fatalf("infer.pilots lacks its pairs/pilots attrs: %+v", pilots.Attrs)
	}
}

// TestChaosSpanBalance is the satellite's invariant check: under torn
// spool writes, a flapping origin and injected inference faults, every
// started span ends exactly once, errored spans carry a status, the ring
// never exceeds its bound, and every exposed trace still passes the strict
// parser in both the JSON and the NDJSON form.
func TestChaosSpanBalance(t *testing.T) {
	originSrv, _ := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	fs := faultinject.New(7)
	tracer := trace.New(trace.WithSampleRate(1), trace.WithSeed(9), trace.WithRingSize(32))
	sp, err := spool.New(t.TempDir(), spool.WithFaults(fs), spool.WithTracer(tracer), spool.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rm := remote.New(origin.URL,
		remote.WithHTTPClient(&http.Client{
			Transport: faultinject.Transport(fs, faultinject.RemoteFetch, http.DefaultTransport),
		}),
		remote.WithNegTTL(50*time.Millisecond),
		remote.WithBackoffMax(200*time.Millisecond),
		remote.WithRetries(1, 2*time.Millisecond),
		remote.WithLogf(t.Logf))
	reg := registry.New(registry.Options{MaxEntries: 64, Tiers: []registry.Store{sp, rm}})
	defer reg.Close()
	s := newServerWith(reg, 51, 32)
	s.tracer = tracer
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	fs.Add(
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "refused", Prob: 0.4},
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "truncate", Prob: 0.3},
		faultinject.Fault{Point: faultinject.SpoolWrite, Mode: "torn", Prob: 0.4},
	)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seed := 100 + w*10 + i // cold keys exercise every tier
				resp, err := http.Get(fmt.Sprintf(
					"%s/v1/topology?platform=Ivy&seed=%d", ts.URL, seed))
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(fmt.Sprintf(
					"%s/v1/place?platform=Ivy&seed=%d&policy=RR_CORE&threads=4", ts.URL, seed))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	// Flush is the barrier for the spool's write-behind goroutine: after
	// it, every background spool.write span has ended.
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}

	st := tracer.Stats()
	if st.Started != st.Ended {
		t.Fatalf("span imbalance: started %d, ended %d", st.Started, st.Ended)
	}
	if st.RingLen > 32 {
		t.Fatalf("ring holds %d traces, bound is 32", st.RingLen)
	}

	resp, body := get(t, ts, "/v1/debug/traces")
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/debug/traces = %d", resp.StatusCode)
	}
	traces, err := trace.ParseJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposed traces fail the strict parser: %v", err)
	}
	var errored int
	for i := range traces {
		for _, sp := range traces[i].Spans {
			if sp.Error != "" {
				errored++
			}
		}
	}
	if errored == 0 {
		t.Fatal("fault injection produced no errored spans — the error-keep rule went unexercised")
	}

	// The NDJSON form is the same ring, one trace per line: it must pass
	// its own strict parser and name the same traces in the same order.
	resp, body = get(t, ts, "/v1/debug/traces?format=ndjson")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "application/x-ndjson" {
		t.Fatalf("/v1/debug/traces?format=ndjson = %d, Content-Type %q", resp.StatusCode, ct)
	}
	lines, err := trace.ParseNDJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NDJSON traces fail the strict parser: %v", err)
	}
	if len(lines) != len(traces) {
		t.Fatalf("NDJSON form holds %d traces, JSON form %d", len(lines), len(traces))
	}
	for i := range traces {
		if lines[i].TraceID != traces[i].TraceID {
			t.Fatalf("trace %d: NDJSON names %s, JSON %s", i, lines[i].TraceID, traces[i].TraceID)
		}
	}
	if resp, _ := get(t, ts, "/v1/debug/traces?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/debug/traces?format=xml = %d, want 400", resp.StatusCode)
	}
}
