// mctopd's Prometheus instrumentation: every handler runs under one
// middleware (instrument) that counts and times the request per route,
// attributes the tier that served it, and writes a structured request log
// line. Registry and store-tier counters are not double-counted on the
// request path — a BeforeScrape hook mirrors their atomic snapshots into
// the exposition, so /metrics and /v1/stats always agree.
package main

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/trace"
)

// daemonMetrics is mctopd's metric set over internal/metrics.
type daemonMetrics struct {
	reg *metrics.Registry

	httpRequests *metrics.CounterVec   // route, method, code
	httpDuration *metrics.HistogramVec // route
	shed         *metrics.Counter
	servedByTier *metrics.CounterVec                   // tier ("lru", "spool", "remote", "computed", "coalesced")
	computeDur   [registry.NumKinds]*metrics.Histogram // executed computes, by kind

	// Mirrored from registry.Stats() at scrape time (BeforeScrape).
	regHits        *metrics.Counter
	regMisses      *metrics.Counter
	regInferences  *metrics.Counter
	regPlacements  *metrics.Counter
	regMappings    *metrics.Counter
	regEvictions   *metrics.Counter
	regEntries     *metrics.Gauge
	storeGets      *metrics.CounterVec // tier, kind, result ("hit" | "miss")
	storeEvictions *metrics.CounterVec // tier, kind
	storeEntries   *metrics.GaugeVec   // tier, kind
	storePuts      *metrics.CounterVec // tier
	storeErrors    *metrics.CounterVec // tier

	// Readiness and corruption accounting (mirrored at scrape time).
	ready            *metrics.Gauge
	tierDegraded     *metrics.GaugeVec // tier — 1 while the tier's probe reports degraded
	spoolQuarantined *metrics.Gauge

	// Remote tier (edge mode only; families exist either way so the
	// exposition shape is stable).
	remoteFetchDur   *metrics.HistogramVec // origin, outcome
	remoteBackoff    *metrics.GaugeVec     // origin — 1 while the backoff window is open
	remoteFails      *metrics.GaugeVec     // origin — consecutive origin-level failures
	remoteNegEntries *metrics.GaugeVec     // origin — live negative-cache keys
}

func newDaemonMetrics() *daemonMetrics {
	r := metrics.NewRegistry()
	d := &daemonMetrics{
		reg: r,
		httpRequests: r.NewCounterVec("mctopd_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code"),
		httpDuration: r.NewHistogramVec("mctopd_http_request_duration_seconds",
			"HTTP request wall time, by route.",
			metrics.DefDurationBuckets, "route"),
		shed: r.NewCounter("mctopd_http_shed_total",
			"Requests shed with 503 by the in-flight bound."),
		servedByTier: r.NewCounterVec("mctopd_requests_served_by_tier_total",
			"Registry lookups attributed to the tier that answered: a store tier name, \"computed\" (this request ran the computation) or \"coalesced\" (joined another request's computation).",
			"tier"),
		computeDur: [registry.NumKinds]*metrics.Histogram{
			registry.KindTopology: r.NewHistogram("mctopd_inference_duration_seconds",
				"Wall time of executed topology inferences (cache hits not included).",
				metrics.DefDurationBuckets),
			registry.KindPlacement: r.NewHistogram("mctopd_placement_duration_seconds",
				"Wall time of computed placements (cache hits not included).",
				metrics.DefDurationBuckets),
			registry.KindMapping: r.NewHistogram("mctopd_mapping_duration_seconds",
				"Wall time of computed task-graph mappings (cache hits not included).",
				metrics.DefDurationBuckets),
		},
		regHits: r.NewCounter("mctopd_registry_hits_total",
			"Registry lookups answered from the store (any tier)."),
		regMisses: r.NewCounter("mctopd_registry_misses_total",
			"Registry lookups that computed or joined a computation."),
		regInferences: r.NewCounter("mctopd_registry_inferences_total",
			"Topology inferences actually executed."),
		regPlacements: r.NewCounter("mctopd_registry_placements_total",
			"Placements actually computed."),
		regMappings: r.NewCounter("mctopd_registry_mappings_total",
			"Task-graph mappings actually computed."),
		regEvictions: r.NewCounter("mctopd_registry_evictions_total",
			"Entries dropped by a capacity bound, summed over tiers."),
		regEntries: r.NewGauge("mctopd_registry_entries",
			"Entries resident in the fastest store tier."),
		storeGets: r.NewCounterVec("mctopd_store_gets_total",
			"Store-tier lookups, by tier, entry kind and result.",
			"tier", "kind", "result"),
		storeEvictions: r.NewCounterVec("mctopd_store_evictions_total",
			"Store-tier evictions, by tier and entry kind.",
			"tier", "kind"),
		storeEntries: r.NewGaugeVec("mctopd_store_entries",
			"Entries resident per store tier and entry kind.",
			"tier", "kind"),
		storePuts: r.NewCounterVec("mctopd_store_puts_total",
			"Store-tier writes (including tier promotions), by tier.",
			"tier"),
		storeErrors: r.NewCounterVec("mctopd_store_errors_total",
			"Entries a tier failed to read or write (each degraded to a miss or dropped write), by tier.",
			"tier"),
		ready: r.NewGauge("mctopd_ready",
			"1 when every readiness probe passes (what /readyz answers 200 on), else 0."),
		tierDegraded: r.NewGaugeVec("mctopd_tier_degraded",
			"1 while the tier's readiness probe reports degraded (spool read-only, origin backoff open), else 0.",
			"tier"),
		spoolQuarantined: r.NewGauge(
			"mctopd_spool_quarantined_files",
			"Undecodable or torn files the spool moved to its quarantine/ directory; nonzero means on-disk corruption happened."),
		remoteFetchDur: r.NewHistogramVec("mctopd_remote_fetch_duration_seconds",
			"Upstream /v1/export fetch wall time, by origin and outcome (ok, origin_fault, key_fault).",
			metrics.DefDurationBuckets, "origin", "outcome"),
		remoteBackoff: r.NewGaugeVec("mctopd_remote_backoff_active",
			"1 while the origin-level backoff window is open (fetches are skipped), else 0.",
			"origin"),
		remoteFails: r.NewGaugeVec("mctopd_remote_backoff_consecutive_failures",
			"Consecutive origin-level fetch failures (the backoff exponent).",
			"origin"),
		remoteNegEntries: r.NewGaugeVec("mctopd_remote_negative_cache_entries",
			"Live per-key negative-cache entries for the origin.",
			"origin"),
	}
	return d
}

// observeServer wires the scrape-time mirror: one registry.Stats() snapshot
// per scrape feeds the mctopd_registry_* and mctopd_store_* families, so
// /metrics and /v1/stats are two views of the same counters. It also
// installs the registry Observer feeding the compute-duration histograms,
// and the in-flight gauges.
func (d *daemonMetrics) observeServer(s *server) {
	d.reg.NewGaugeFunc("mctopd_http_inflight_requests",
		"Requests currently holding an in-flight slot.",
		func() float64 { return float64(len(s.inflight)) }) // a nil channel (no bound) has len and cap 0
	d.reg.NewGaugeFunc("mctopd_http_inflight_limit",
		"The in-flight bound beyond which requests are shed (0 = unbounded).",
		func() float64 { return float64(cap(s.inflight)) })
	s.reg.Instrument(&registry.Observer{OnCompute: func(kind registry.Kind, dur time.Duration, err error) {
		d.computeDur[kind].Observe(dur.Seconds())
	}})
	d.reg.BeforeScrape(func() {
		st := s.reg.Stats()
		d.regHits.Set(st.Hits)
		d.regMisses.Set(st.Misses)
		d.regInferences.Set(st.Inferences)
		d.regPlacements.Set(st.Placements)
		d.regMappings.Set(st.Mappings)
		d.regEvictions.Set(st.Evictions)
		d.regEntries.Set(float64(st.Entries))
		var quarantined float64
		for _, tier := range st.Tiers {
			d.storePuts.With(tier.Tier).Set(tier.Puts)
			d.storeErrors.With(tier.Tier).Set(tier.Errors)
			quarantined += float64(tier.Quarantined)
			for kind, ks := range tier.Kinds {
				d.storeGets.With(tier.Tier, kind, "hit").Set(ks.Hits)
				d.storeGets.With(tier.Tier, kind, "miss").Set(ks.Misses)
				d.storeEvictions.With(tier.Tier, kind).Set(ks.Evictions)
				d.storeEntries.With(tier.Tier, kind).Set(float64(ks.Entries))
			}
		}
		d.spoolQuarantined.Set(quarantined)
		// Probe each tier so a healed tier drops back to 0 (s.readiness is
		// fixed after startup; the closure reads its current probes).
		ready := 1.0
		for _, p := range s.readiness {
			v := 0.0
			if bad, _ := p.check(); bad {
				v, ready = 1, 0
			}
			d.tierDegraded.With(p.tier).Set(v)
		}
		d.ready.Set(ready)
	})
}

// observeRemote mirrors the remote tier's backoff state under the given
// origin label (edge mode only).
func (d *daemonMetrics) observeRemote(origin string, rs *remote.Remote) {
	d.reg.BeforeScrape(func() {
		b := rs.Backoff()
		active := 0.0
		if !b.DownUntil.IsZero() && time.Now().Before(b.DownUntil) {
			active = 1
		}
		d.remoteBackoff.With(origin).Set(active)
		d.remoteFails.With(origin).Set(float64(b.ConsecutiveFails))
		d.remoteNegEntries.With(origin).Set(float64(b.NegativeKeys))
	})
}

// observeFetch feeds the per-origin fetch-latency histogram from the
// remote.WithObserver callback.
func (d *daemonMetrics) observeFetch(origin string, dur time.Duration, outcome string) {
	d.remoteFetchDur.With(origin, outcome).Observe(dur.Seconds())
}

// statusRecorder captures the response status for the request counter and
// log line. It forwards Flush so the NDJSON streaming endpoint keeps its
// per-line flushes through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument is the outermost middleware: it wraps every route (the
// backpressure layer included, so shed 503s are counted and logged like any
// response) with the per-route counter and duration histogram, the
// served-by-tier attribution, the request's root span and ID, and one
// structured log line per request.
func (s *server) instrument(table routeTable, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := table.of(r.URL.Path)
		route := rt.pattern
		ctx, served := registry.ContextWithServed(r.Context())

		// Request ID: honor the caller's X-Request-ID, mint one otherwise
		// (RequestID works on a disabled tracer), and echo it on every
		// response — instrument is outermost, so the shedding layer's 503s
		// and the deadline layer's 504s carry it too.
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = s.tracer.RequestID()
		}
		w.Header().Set("X-Request-ID", reqID)

		// Root span, stitched into the caller's trace when the request
		// carries a traceparent (the edge's remote tier sends one). Probe
		// and scrape routes never open spans — a Prometheus poll must not
		// occupy ring slots or skew sampling.
		var sp *trace.Span
		if rt.traced {
			ctx, sp = s.tracer.StartRoot(ctx, "http "+route, r.Header.Get("traceparent"))
			sp.SetAttr("route", route)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("request_id", reqID)
		}

		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sr, r.WithContext(ctx))
		dur := time.Since(start)
		if sr.status == 0 {
			sr.status = http.StatusOK // handler wrote nothing; net/http sends 200
		}
		if sp != nil {
			sp.SetInt("status", int64(sr.status))
			if sr.status >= 500 {
				// 5xx marks the span failed, so the trace is kept whatever
				// the head decision said — errors are the traces worth
				// reading.
				sp.SetStatus(http.StatusText(sr.status))
			}
			if served.Tier != "" {
				sp.SetAttr("tier", served.Tier)
			}
			sp.End()
		}
		s.metrics.httpRequests.With(route, r.Method, strconv3(sr.status)).Inc()
		s.metrics.httpDuration.With(route).Observe(dur.Seconds())
		if served.Tier != "" {
			s.metrics.servedByTier.With(served.Tier).Inc()
		}
		if rt.logged {
			attrs := []any{
				"route", route,
				"method", r.Method,
				"status", sr.status,
				"dur", dur,
				"request_id", reqID,
			}
			if sp != nil {
				attrs = append(attrs, "trace_id", sp.TraceIDString(), "span_id", sp.SpanIDString())
			}
			q := r.URL.Query()
			if v := q.Get("platform"); v != "" {
				attrs = append(attrs, "platform", v)
			}
			if v := q.Get("policy"); v != "" {
				attrs = append(attrs, "policy", v)
			}
			if v := q.Get("key"); v != "" {
				attrs = append(attrs, "key", v)
			}
			if served.Tier != "" {
				attrs = append(attrs, "tier", served.Tier)
			}
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request", slog.Group("", attrs...))
		}
	})
}

// strconv3 renders the three-digit HTTP statuses without strconv.Itoa's
// allocation on the hot path (any out-of-range status falls back).
func strconv3(status int) string {
	if status >= 100 && status < 600 {
		var b [3]byte
		b[0] = byte('0' + status/100)
		b[1] = byte('0' + status/10%10)
		b[2] = byte('0' + status%10)
		return string(b[:])
	}
	return strconv.Itoa(status)
}
