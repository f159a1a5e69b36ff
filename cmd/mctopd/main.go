// Command mctopd is the MCTOP topology daemon: a long-running HTTP server
// that answers topology and placement queries over JSON, backed by the
// registry's memoization — the paper's "infer once, reuse everywhere"
// deployment model (Section 2) turned into a service. The first query for a
// (platform, seed, options) triple runs MCTOP-ALG; every later query is a
// cache hit, and concurrent first queries collapse into one inference.
//
// Usage:
//
//	mctopd -addr :8077 -cache 256 -max-inflight 64 -spool-dir /var/lib/mctop/spool
//
// With -spool-dir, every inferred topology and computed placement is also
// persisted as a description file (write-behind, crash-safe temp+rename),
// and a restarted daemon warm-starts from the spool: it serves every
// previously seen platform byte-identically with zero re-inferences. On
// SIGTERM/SIGINT the daemon drains in-flight requests and flushes the
// spool before exiting. -spool-max-bytes / -spool-max-age bound the
// directory, evicting oldest-mtime files first at startup and after
// flushes.
//
// With -upstream, the daemon is a fleet edge: a local cache miss is
// fetched from the origin mctopd's /v1/export endpoint (the tier chain
// becomes LRU → spool → remote → infer), so one warm origin feeds a fleet
// of edges that serve its description files byte-identically with zero
// local inferences — and any edge keeps serving through its own inference
// when the origin is down. Every daemon serves /v1/export, so edges can
// themselves feed further edges:
//
//	mctopd -addr :8078 -upstream http://origin:8077 -spool-dir /var/lib/mctop/edge
//
// Endpoints:
//
//	GET  /healthz                          liveness probe (exempt from backpressure)
//	GET  /readyz                           readiness probe: 503 while a tier
//	                                       is degraded (spool read-only,
//	                                       origin backoff open), 200 once
//	                                       every tier heals
//	GET  /v1/platforms                     the five simulated platforms (any
//	                                       endpoint also accepts generated
//	                                       gen:<kind>:s<S>:c<C>:t<T> specs,
//	                                       e.g. gen:circulant:s64:c8:t2)
//	GET  /v1/policies                      the 12 builtin placement policies
//	GET  /v1/topology?platform=Ivy&seed=42[&reps=201][&sampling=1][&format=mctop|dot]
//	GET  /v1/place?platform=Ivy&seed=42&policy=RR_CORE&threads=8
//	POST /v1/place/batch                   many placements, one topology lookup
//	POST /v1/map                           topology-aware task-graph mapping:
//	                                       a DAG (or batch of DAGs) in, a
//	                                       task → hardware-context assignment
//	                                       and its estimated completion time
//	                                       out, memoized by DAG hash
//	POST /v1/place/batch?stream=1          the same, as NDJSON: one line per
//	                                       placement as each completes,
//	                                       per-item errors inline
//	GET  /v1/export?key=<registry key>     the entry's interchange file: a
//	                                       #key-headed .mctop description
//	                                       file or a .place sidecar — what
//	                                       fleet edges fetch
//	GET  /v1/stats                         registry hit/miss/eviction counters
//	GET  /v1/debug/traces                  finished request traces (with
//	                                       -trace-sample > 0): JSON, or one
//	                                       trace per line with ?format=ndjson
//	GET  /metrics                          Prometheus text exposition (exempt
//	                                       from backpressure)
//	GET  /debug/pprof/                     net/http/pprof, with -pprof
//
// Platforms can be the paper's five machines or synthetic generated ones
// (internal/sim's gen: specs) — dozens of sockets, thousands of contexts.
// Since inference cost grows with the square of the context count,
// -max-contexts bounds how large a platform a request may name (413 beyond
// it), and -sampling defaults requests to the sampled sub-O(N²)
// measurement mode (?sampling=0/1 and the batch "sampling" field override
// per request; results are byte-identical to exhaustive inference, see
// internal/mctopalg).
//
// Failures carry the client API's sentinel errors, mapped to HTTP statuses
// in one place (statusOf): ErrInvalidRequest → 400, ErrUnknownPlatform and
// ErrUnknownPolicy → 404, ErrTooLarge → 413, ErrSaturated → 503. Handlers
// run under the request context, so a disconnected client cancels a cold
// O(N²) inference, and -max-inflight bounds concurrent requests — beyond
// it the daemon sheds load with 503 + Retry-After instead of queueing
// into timeout.
//
// The batch endpoint answers many {policy, threads} requests against one
// topology in a single call — runtime systems resolving a whole sweep of
// placement configurations pay the registry lookup (and, cold, the O(N²)
// inference) once, and every placement is built from the topology's
// precomputed query index. Requests that fail (unknown policy, POWER on a
// machine without power measurements) report their error inline without
// failing the batch:
//
//	curl -s -X POST localhost:8077/v1/place/batch -d '{
//	  "platform": "Ivy", "seed": 42,
//	  "requests": [
//	    {"policy": "RR_CORE",  "threads": 8},
//	    {"policy": "CON_HWC",  "threads": 30},
//	    {"policy": "POWER",    "threads": 16}
//	  ]
//	}'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	mctop "repro"
	"repro/internal/faultinject"
	"repro/internal/mctoperr"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/spool"
	"repro/internal/topo"
	"repro/internal/trace"
)

// defaultMaxContexts is -max-contexts' default. MCTOP-ALG's raw latency
// table is the one dense n×n structure an inference holds (the topology's
// query index is linear in n): at 2048 contexts it takes about 34 MB, and
// an unbounded request naming a 2²⁰-context gen: platform would ask for
// terabytes — an out-of-memory failure no handler can turn into a 413.
const defaultMaxContexts = 2048

// daemonConfig is everything the flags decide, decoupled from the flag
// package so tests can run a complete daemon in-process (run is the whole
// lifecycle: listen, serve, drain, flush).
type daemonConfig struct {
	addr           string
	cache          int
	reps           int
	spoolDir       string
	spoolMaxBytes  int64
	spoolMaxAge    time.Duration
	upstream       string
	maxInflight    int
	maxContexts    int
	sampling       bool
	pprof          bool
	faults         string
	faultsSeed     uint64
	requestTimeout time.Duration
	traceSample    float64
	traceSlow      time.Duration
	traceRing      int
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8077", "listen address")
	flag.IntVar(&cfg.cache, "cache", 256, "maximum cached topologies + placements (LRU beyond)")
	flag.IntVar(&cfg.reps, "reps", 201, "default repetitions per context pair")
	flag.StringVar(&cfg.spoolDir, "spool-dir", "",
		"persist inferred topologies and placements as description files here; a restarted daemon warm-starts from them (empty = memory only)")
	flag.Int64Var(&cfg.spoolMaxBytes, "spool-max-bytes", 0,
		"bound the spool directory's total size, evicting oldest-mtime files first at startup and after flushes (<= 0 = unlimited)")
	flag.DurationVar(&cfg.spoolMaxAge, "spool-max-age", 0,
		"evict spool files older than this at startup and after flushes (0 = unlimited)")
	flag.StringVar(&cfg.upstream, "upstream", "",
		"origin mctopd base URL (e.g. http://origin:8077): misses are fetched from its /v1/export before inferring locally, making this daemon a fleet edge")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 4*runtime.GOMAXPROCS(0),
		"maximum concurrent in-flight requests before shedding with 503 (<= 0 disables)")
	flag.IntVar(&cfg.maxContexts, "max-contexts", defaultMaxContexts,
		"refuse platforms with more hardware contexts than this with 413 — the size bound for generated gen: platforms, whose inference cost and memory grow with the square of the context count (<= 0 disables)")
	flag.BoolVar(&cfg.sampling, "sampling", false,
		"default requests to the sampled sub-O(N²) measurement mode on large platforms; per-request ?sampling=0/1 overrides")
	flag.BoolVar(&cfg.pprof, "pprof", false,
		"mount net/http/pprof under /debug/pprof/ (exempt from backpressure, like /metrics)")
	flag.StringVar(&cfg.faults, "faults", "",
		"arm deterministic fault injection: semicolon-separated point:mode=...,prob=...,count=... rules (see internal/faultinject), e.g. 'remote.fetch:mode=refused,count=3;spool.write:mode=enospc,prob=0.1'")
	flag.Uint64Var(&cfg.faultsSeed, "faults-seed", 1,
		"seed for the fault-injection probability stream (same seed + same request sequence = same faults)")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 0,
		"per-request server-side deadline for buffered routes; a wedged tier becomes an honest 504 instead of a hung connection (0 = off; streaming and observability routes are exempt)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0,
		"head-sampling probability in [0,1] for request traces served at /v1/debug/traces; 0 disables tracing entirely (traces with errors, and with -trace-slow traces over the threshold, are kept regardless of the head decision)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 0,
		"keep every trace whose request runs at least this long, regardless of the sampling decision (0 = off; only meaningful with -trace-sample > 0)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 0,
		"bound on finished traces held in memory for /v1/debug/traces (<= 0 = default 128)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, func(addr string) {
		log.Printf("mctopd: serving topology queries on %s (cache %d entries, %d in-flight)",
			addr, cfg.cache, cfg.maxInflight)
	}); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon's whole lifecycle: build the tier chain, listen, call
// onReady with the bound address, serve until ctx is cancelled (SIGTERM in
// main), then drain in-flight requests and flush the spool. Splitting it
// from main makes graceful shutdown testable with a real signal.
func run(ctx context.Context, cfg daemonConfig, onReady func(addr string)) error {
	var faults *faultinject.Set
	if cfg.faults != "" {
		var err error
		if faults, err = faultinject.Parse(cfg.faultsSeed, cfg.faults); err != nil {
			return fmt.Errorf("mctopd: -faults: %w", err)
		}
		log.Printf("mctopd: fault injection armed (seed %d): %s", cfg.faultsSeed, cfg.faults)
	}

	// The span plane. Seeded from the listen address so two daemons of one
	// fleet draw distinct ID streams yet each is reproducible run to run;
	// with -trace-sample 0 the tracer is disabled and every instrumentation
	// call below it is a no-op.
	tracerOpts := []trace.Option{
		trace.WithSampleRate(cfg.traceSample),
		trace.WithSlowThreshold(cfg.traceSlow),
		trace.WithSeed(traceSeed(cfg.addr)),
	}
	if cfg.traceRing > 0 {
		tracerOpts = append(tracerOpts, trace.WithRingSize(cfg.traceRing))
	}
	tracer := trace.New(tracerOpts...)
	if tracer.Enabled() {
		log.Printf("mctopd: tracing %.3g of requests (slow threshold %v) at /v1/debug/traces",
			cfg.traceSample, cfg.traceSlow)
	}

	// Tier chain, fastest first: LRU → spool (optional) → remote
	// (optional) — any daemon is an origin to its downstreams and, with
	// -upstream, an edge to its origin at the same time.
	var (
		s  *server // assigned below; the remote observer closes over it
		rs *remote.Remote
		sp *spool.Spool
	)
	tiers := []mctop.Store{mctop.NewLRUStore(cfg.cache)}
	if cfg.spoolDir != "" {
		// Zero bounds, a nil fault set and a disabled tracer are each the
		// option's "off". The tracer is for the write-behind goroutine,
		// which runs outside any request and opens its own root spans.
		var err error
		sp, err = spool.New(cfg.spoolDir, spool.WithMaxBytes(cfg.spoolMaxBytes),
			spool.WithMaxAge(cfg.spoolMaxAge), spool.WithFaults(faults), spool.WithTracer(tracer))
		if err != nil {
			return fmt.Errorf("mctopd: %w", err)
		}
		tiers = append(tiers, sp)
		log.Printf("mctopd: spooling to %s (%d entries on disk)", cfg.spoolDir, sp.Len())
	}
	if cfg.upstream != "" {
		// Built directly (not through the facade) so the daemon keeps a
		// handle for the backoff gauges; the observer reads s.metrics,
		// which is assigned before the first request can fetch.
		rOpts := []remote.Option{remote.WithObserver(func(d time.Duration, outcome string) {
			s.metrics.observeFetch(cfg.upstream, d, outcome)
		})}
		if faults != nil {
			rOpts = append(rOpts, remote.WithHTTPClient(&http.Client{
				Transport: faultinject.Transport(faults, faultinject.RemoteFetch, http.DefaultTransport),
			}))
		}
		rs = remote.New(cfg.upstream, rOpts...)
		tiers = append(tiers, rs)
		log.Printf("mctopd: edge mode, pulling misses from %s", cfg.upstream)
	}
	regOpts := []mctop.RegistryOption{mctop.WithStore(mctop.NewTieredStore(tiers...))}
	var mapperFailed atomic.Bool
	if faults != nil {
		// The registry.infer point: a fired rule delays and/or fails the
		// compute path itself, the slowest thing a request can wait on.
		regOpts = append(regOpts, mctop.WithInferWrapper(func(next mctop.InferCtxFunc) mctop.InferCtxFunc {
			return func(ctx context.Context, platform string, seed uint64, opt mctop.Options) (*mctop.Topology, error) {
				if o, fired := faults.Eval(faultinject.RegistryInfer); fired {
					if err := o.Delay(ctx); err != nil {
						return nil, err
					}
					if o.Mode != "slow" {
						return nil, o.Err(faultinject.RegistryInfer)
					}
				}
				return next(ctx, platform, seed, opt)
			}
		}))
		// The registry.map point: same shape on the mapping compute path.
		// An injected failure wraps ErrSaturated (an honest 503 +
		// Retry-After, never a wrong assignment) and flips the mapper
		// readiness probe until a mapping computes cleanly again.
		regOpts = append(regOpts, mctop.WithMapWrapper(func(next mctop.MapFunc) mctop.MapFunc {
			return func(ctx context.Context, t *mctop.Topology, d *mctop.TaskDAG, opt mctop.MapOptions) (*mctop.Mapping, error) {
				if o, fired := faults.Eval(faultinject.RegistryMap); fired {
					if err := o.Delay(ctx); err != nil {
						return nil, err
					}
					if o.Mode != "slow" {
						mapperFailed.Store(true)
						return nil, fmt.Errorf("%w: mapper: %v", mctoperr.ErrSaturated, o.Err(faultinject.RegistryMap))
					}
				}
				m, err := next(ctx, t, d, opt)
				if err == nil {
					mapperFailed.Store(false)
				}
				return m, err
			}
		}))
	}
	reg := mctop.NewRegistry(cfg.cache, regOpts...)
	s = newServerWith(reg, cfg.reps, cfg.maxInflight)
	s.tracer = tracer
	s.maxContexts = cfg.maxContexts
	s.defaultSampling = cfg.sampling
	s.pprof = cfg.pprof
	s.reqTimeout = cfg.requestTimeout
	s.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if sp != nil {
		s.readiness = append(s.readiness, readyProbe{tier: "spool", check: sp.Degraded})
	}
	if faults != nil {
		s.readiness = append(s.readiness, readyProbe{tier: "mapper", check: func() (bool, string) {
			if mapperFailed.Load() {
				return true, "last mapping compute failed; mappings are degraded until one succeeds"
			}
			return false, ""
		}})
	}
	if rs != nil {
		s.metrics.observeRemote(cfg.upstream, rs)
		s.readiness = append(s.readiness, readyProbe{tier: "remote", check: func() (bool, string) {
			b := rs.Backoff()
			if !b.DownUntil.IsZero() && time.Now().Before(b.DownUntil) {
				return true, fmt.Sprintf("origin backoff window open (%d consecutive failures)", b.ConsecutiveFails)
			}
			return false, ""
		}})
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("mctopd: %w", err)
	}
	srv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute, // a cold SPARC inference at paper reps is slow
		IdleTimeout:       2 * time.Minute,
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	// Graceful shutdown: on ctx cancellation stop accepting, drain
	// in-flight requests, then flush the registry so every entry the
	// process served is durable in the spool — the next start answers them
	// with zero re-inferences.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("mctopd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("mctopd: shutdown: %v", err)
	}
	if err := reg.Close(); err != nil {
		return fmt.Errorf("mctopd: flushing spool: %w", err)
	}
	return nil
}

// traceSeed derives the tracer's ID-stream seed from the listen address
// (FNV-1a), so each daemon of a fleet draws distinct trace/span IDs while
// any one daemon's stream is reproducible across restarts. Never zero.
func traceSeed(addr string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// server holds the daemon's registry and defaults; split from main so tests
// can drive the handlers through httptest.
type server struct {
	reg         *mctop.Registry
	defaultReps int
	// maxContexts refuses platforms larger than this with 413 (0 = no
	// bound; defaultMaxContexts unless -max-contexts says otherwise);
	// defaultSampling turns the sampled measurement mode on for
	// requests that do not say ?sampling= themselves.
	maxContexts     int
	defaultSampling bool
	// inflight is the backpressure semaphore: one slot per in-flight
	// request (healthz, /metrics and pprof excepted). nil disables
	// shedding.
	inflight chan struct{}
	// metrics is the daemon's Prometheus instrument set (always present;
	// scraped at /metrics). logger writes one structured line per request
	// (io.Discard by default so handler tests stay quiet; main installs a
	// real one).
	metrics *daemonMetrics
	logger  *slog.Logger
	// pprof mounts net/http/pprof under /debug/pprof/ when set.
	pprof bool
	// readiness lists the per-tier degradation probes behind /readyz (and
	// the ready/degraded fields of /v1/stats and /metrics). Empty = always
	// ready.
	readiness []readyProbe
	// reqTimeout, when > 0, bounds buffered handlers with a server-side
	// deadline (withDeadlines); streaming and observability routes are
	// exempt.
	reqTimeout time.Duration
	// tracer is the span plane behind /v1/debug/traces. Never nil: the
	// default is a disabled tracer (sample rate 0) that still mints
	// request IDs; -trace-sample arms it in main.
	tracer *trace.Tracer
	// maps is the /v1/map body digest index (render.go).
	maps mapAliases
}

// readyProbe is one tier's degradation check: degraded=true with a
// human-readable reason means the tier is unhealthy but the daemon keeps
// serving what it can — readiness (route traffic elsewhere), not liveness
// (restart me).
type readyProbe struct {
	tier  string
	check func() (degraded bool, reason string)
}

// newServerWith injects the registry and the in-flight bound, so tests can
// substitute blocking inference functions and tiny bounds.
func newServerWith(reg *mctop.Registry, defaultReps, maxInflight int) *server {
	s := &server{
		reg:         reg,
		defaultReps: defaultReps,
		metrics:     newDaemonMetrics(),
		logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		tracer:      trace.New(),
		maxContexts: defaultMaxContexts,
	}
	if maxInflight > 0 {
		s.inflight = make(chan struct{}, maxInflight)
	}
	s.metrics.observeServer(s)
	return s
}

// route is one row of the daemon's route table: the one place a path's
// handler, its metrics/log/span label (the pattern itself) and its four
// middleware policies are declared.
type route struct {
	// pattern is the ServeMux pattern; a trailing slash matches the subtree.
	pattern string
	handler http.HandlerFunc
	// shed: the request counts against -max-inflight. Observability routes
	// must answer even when the daemon sheds serving load — an orchestrator
	// must see a saturated daemon as alive, and a saturated daemon is
	// exactly when an operator needs its metrics and profiles.
	shed bool
	// traced: the request opens a root span. Probe and scrape traffic would
	// otherwise occupy ring slots and skew sampling toward the
	// orchestrator's polling cadence, and reading the trace dump must not
	// create traces.
	traced bool
	// deadline: the request is bounded by -request-timeout, so a wedged tier
	// becomes an honest 504 instead of a hung connection.
	deadline bool
	// logged: the request writes one structured log line. Orchestrator
	// probes and Prometheus scrapes arrive every few seconds forever and
	// would drown the lines operators read.
	logged bool
}

type routeTable []route

// otherRoute is the row of every path the table does not name: the label
// stays bounded whatever clients probe for, and the 404 is served under
// every serving-route policy.
var otherRoute = route{pattern: "other", shed: true, traced: true, deadline: true, logged: true}

// of returns the row serving path.
func (t routeTable) of(path string) *route {
	for i := range t {
		p := t[i].pattern
		if p == path || strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) {
			return &t[i]
		}
	}
	return &otherRoute
}

func (s *server) routeTable() routeTable {
	// The pprof subtree keeps its row (label, exemptions) without -pprof;
	// only its handlers are then absent.
	pprofTree := http.NotFound
	if s.pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofTree = mux.ServeHTTP
	}
	return routeTable{
		// pattern, handler, shed, traced, deadline, logged
		{"/healthz", s.handleHealthz, false, false, false, false},
		{"/readyz", s.handleReadyz, false, false, false, false},
		{"/metrics", s.metrics.reg.Handler().ServeHTTP, false, false, false, false},
		{"/v1/debug/traces", s.handleTraces, false, false, false, true},
		{"/debug/pprof/", pprofTree, false, false, false, true},
		{"/v1/platforms", s.handlePlatforms, true, true, true, true},
		{"/v1/policies", s.handlePolicies, true, true, true, true},
		{"/v1/topology", s.handleTopology, true, true, true, true},
		{"/v1/place", s.handlePlace, true, true, true, true},
		{"/v1/place/batch", s.handlePlaceBatch, true, true, true, true}, // ?stream=1 opts out of the deadline per request
		{"/v1/map", s.handleMap, true, true, true, true},
		{"/v1/export", s.handleExport, true, true, true, true},
		{"/v1/stats", s.handleStats, true, true, true, true},
	}
}

func (s *server) routes() http.Handler {
	table := s.routeTable()
	mux := http.NewServeMux()
	for _, rt := range table {
		mux.Handle(rt.pattern, rt.handler)
	}
	return s.instrument(table, s.withBackpressure(table, s.withDeadlines(table, mux)))
}

// withDeadlines bounds every route that asks for it with a server-side
// request deadline (s.reqTimeout). A streaming batch response is exempt
// per request — a long NDJSON stream is progress, not a hang.
func (s *server) withDeadlines(table routeTable, next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := table.of(r.URL.Path)
		if !rt.deadline || rt.pattern == "/v1/place/batch" && r.URL.Query().Get("stream") == "1" {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withBackpressure sheds requests beyond the in-flight bound with 503 +
// Retry-After instead of queueing them behind a saturated CPU: an
// inference-heavy burst would otherwise pile onto the registry's compute
// semaphore until every response deadline is blown.
func (s *server) withBackpressure(table routeTable, next http.Handler) http.Handler {
	if s.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !table.of(r.URL.Path).shed {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		default:
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeErrStatus(w, fmt.Errorf("%w: %d requests in flight", mctoperr.ErrSaturated, cap(s.inflight)))
		}
	})
}

// writeJSON renders v into a buffer before any status is written, so a
// value that cannot be encoded is an honest 500 with an error body, never a
// 200 with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = encodeJSON(map[string]string{"error": fmt.Sprintf("encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusOf is the single place the daemon maps the client API's sentinel
// errors to HTTP statuses; handlers never pick a status by hand.
func statusOf(err error) int {
	switch {
	case errors.As(err, new(noEntryError)):
		return http.StatusNotFound // 404
	case errors.Is(err, mctoperr.ErrSaturated):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, mctoperr.ErrTooLarge):
		return http.StatusRequestEntityTooLarge // 413
	case errors.Is(err, mctoperr.ErrUnknownPlatform),
		errors.Is(err, mctoperr.ErrUnknownPolicy):
		return http.StatusNotFound // 404
	case errors.Is(err, mctoperr.ErrInvalidRequest):
		return http.StatusBadRequest // 400
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, context.Canceled):
		// The requester went away (healthy waiters are re-promoted by the
		// registry, so a Canceled here is this request's own); 499 is the
		// de-facto "client closed request" status. Nobody reads the
		// response, but logs and metrics should not count it as a 500.
		return 499
	default:
		return http.StatusInternalServerError // 500
	}
}

// writeErrStatus maps err through statusOf and writes it. 503s and 504s —
// the honest refusals of the SLO contract — always carry a Retry-After,
// so a well-behaved client backs off instead of hammering a degraded
// daemon.
func writeErrStatus(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	writeErr(w, status, err)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))
}

// degradedTier names one unhealthy tier in /readyz and /v1/stats.
type degradedTier struct {
	Tier   string `json:"tier"`
	Reason string `json:"reason"`
}

// readyState runs every readiness probe; ready means none is degraded.
func (s *server) readyState() (bool, []degradedTier) {
	var out []degradedTier
	for _, p := range s.readiness {
		if bad, reason := p.check(); bad {
			out = append(out, degradedTier{Tier: p.tier, Reason: reason})
		}
	}
	return len(out) == 0, out
}

// handleReadyz is readiness, distinct from /healthz liveness: a daemon
// that is alive but degraded (spool effectively read-only after a write
// failure, origin inside a backoff window) answers 503 here so an
// orchestrator routes traffic elsewhere while the process keeps serving
// what it can. /healthz stays 200 the whole time — degraded is not a
// reason to restart.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, degraded := s.readyState()
	if ready {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		return
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"ready":    false,
		"degraded": degraded,
	})
}

func (s *server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"platforms": mctop.Platforms()})
}

func (s *server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"policies": mctop.PolicyNames()})
}

// validatePlatform sorts platform failures: an absent parameter is a
// malformed request (ErrInvalidRequest, 400), a malformed gen: spec is too
// (sim.ParseGenName's contract), a named-but-unknown platform is a miss on
// the platform namespace (ErrUnknownPlatform, 404), and a platform over the
// -max-contexts bound is an honest refusal of quadratic work this daemon is
// not sized for (ErrTooLarge, 413 — a client fault, so no Retry-After:
// retrying the same platform can never succeed here).
func (s *server) validatePlatform(platform string) error {
	if platform == "" {
		return fmt.Errorf("%w: missing platform (one of: %s; or a gen: spec)", mctoperr.ErrInvalidRequest, strings.Join(mctop.Platforms(), ", "))
	}
	// A gen: spec is sized from its parsed dimensions before Generate
	// runs: generating (let alone inferring) an over-bound platform is the
	// very allocation the bound exists to refuse.
	if strings.HasPrefix(platform, sim.GenPrefix) {
		spec, err := sim.ParseGenName(platform)
		if err != nil {
			return err
		}
		if err := s.checkContexts(platform, spec.NumContexts()); err != nil {
			return err
		}
	} else if n, ok := goldenContexts[platform]; ok {
		return s.checkContexts(platform, n)
	}
	p, err := sim.ByName(platform)
	if err != nil {
		return err
	}
	return s.checkContexts(platform, p.NumContexts())
}

// goldenContexts is each golden platform's context count, built once:
// validatePlatform sizes a golden name from it instead of building the
// whole platform per request. A gen: name still goes through sim.ByName
// after its size check, since Generate refuses some specs ParseGenName
// accepts (a generator list on a mesh, an over-cap size).
var goldenContexts = func() map[string]int {
	m := make(map[string]int)
	for _, p := range sim.Platforms() {
		m[p.Name] = p.NumContexts()
	}
	return m
}()

// checkContexts refuses a platform of n hardware contexts over the
// -max-contexts bound with ErrTooLarge.
func (s *server) checkContexts(platform string, n int) error {
	if s.maxContexts > 0 && n > s.maxContexts {
		return fmt.Errorf("%w: platform %q has %d hardware contexts, over this daemon's limit of %d",
			mctoperr.ErrTooLarge, platform, n, s.maxContexts)
	}
	return nil
}

// validateReps bounds the work one request can demand: inference is
// O(N² · reps) and runs to completion once started, beyond any response
// timeout. 10000 is 5x the paper's n = 2000.
func validateReps(reps int) error {
	if reps < 1 || reps > 10000 {
		return fmt.Errorf("%w: bad reps %d (want 1..10000)", mctoperr.ErrInvalidRequest, reps)
	}
	return nil
}

// topoParams are the request parameters that select a topology, as the
// client sent them: the fields every JSON body embeds, and what query fills
// from a GET's query string. Absent fields (nil, 0) take the daemon's
// defaults in resolve.
type topoParams struct {
	Platform string  `json:"platform"`
	Seed     *uint64 `json:"seed"`
	Reps     int     `json:"reps,omitempty"`
	Sampling *bool   `json:"sampling,omitempty"`
}

// resolve is the one place request parameters become a registry lookup:
// it validates the platform and reps and applies the defaults — seed 42,
// the daemon's -reps and -sampling. Every failure wraps a sentinel error
// (ErrUnknownPlatform, ErrInvalidRequest, ErrTooLarge) for statusOf.
func (s *server) resolve(p topoParams) (platform string, seed uint64, opt mctop.Options, err error) {
	if err := s.validatePlatform(p.Platform); err != nil {
		return "", 0, opt, err
	}
	opt.Reps = s.defaultReps
	if p.Reps != 0 {
		if err := validateReps(p.Reps); err != nil {
			return "", 0, opt, err
		}
		opt.Reps = p.Reps
	}
	opt.Sampling = s.defaultSampling
	if p.Sampling != nil {
		opt.Sampling = *p.Sampling
	}
	seed = 42
	if p.Seed != nil {
		seed = *p.Seed
	}
	return p.Platform, seed, opt, nil
}

// query is resolve for the GET endpoints: it reads the parameters from the
// query string first.
func (s *server) query(r *http.Request) (platform string, seed uint64, opt mctop.Options, err error) {
	q := r.URL.Query()
	p := topoParams{Platform: q.Get("platform")}
	bad := func(name, v string, err error) (string, uint64, mctop.Options, error) {
		return "", 0, opt, fmt.Errorf("%w: bad %s %q: %v", mctoperr.ErrInvalidRequest, name, v, err)
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return bad("seed", v, err)
		}
		p.Seed = &n
	}
	if v := q.Get("reps"); v != "" {
		if p.Reps, err = strconv.Atoi(v); err != nil {
			return bad("reps", v, err)
		}
		if p.Reps == 0 {
			// In a JSON body 0 means absent; spelled out in a query it is
			// a value, and out of range.
			return "", 0, opt, validateReps(0)
		}
	}
	if v := q.Get("sampling"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return "", 0, opt, fmt.Errorf("%w: bad sampling %q (want 0 or 1)", mctoperr.ErrInvalidRequest, v)
		}
		p.Sampling = &b
	}
	return s.resolve(p)
}

// maxBodyBytes bounds a JSON request body.
const maxBodyBytes = 1 << 20

// decodeBody reads a JSON request body strictly (readBody, decodeStrict)
// into req; what names the body in error messages.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, req any) error {
	body, err := readBody(w, r, what)
	if err != nil {
		return err
	}
	return decodeStrict(body, what, req)
}

// readBody reads a request body of at most maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom's EOF probe must not regrow
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return nil, fmt.Errorf("%w: %s body over %d bytes", mctoperr.ErrTooLarge, what, tooBig.Limit)
	case err != nil:
		return nil, fmt.Errorf("%w: reading %s body: %v", mctoperr.ErrInvalidRequest, what, err)
	}
	return buf.Bytes(), nil
}

// decodeStrict decodes body as exactly one JSON value into req: unknown
// fields are errors, and so is anything but whitespace after the value —
// one body names exactly one request.
func decodeStrict(body []byte, what string, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("%w: bad %s body: %v", mctoperr.ErrInvalidRequest, what, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: bad %s body: data after the JSON value", mctoperr.ErrInvalidRequest, what)
	}
	return nil
}

// topologyResponse is the JSON view of a topology: the full spec (the same
// data the .mctop description file carries) plus summary dimensions.
type topologyResponse struct {
	Platform string    `json:"platform"`
	Seed     uint64    `json:"seed"`
	Contexts int       `json:"contexts"`
	Cores    int       `json:"cores"`
	Sockets  int       `json:"sockets"`
	Nodes    int       `json:"nodes"`
	SMTWays  int       `json:"smt_ways"`
	Spec     topo.Spec `json:"spec"`
	Cached   bool      `json:"cached"`
	ServedIn string    `json:"served_in"`
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	platform, seed, opt, err := s.query(r)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	// Validate the format before paying for an inference: a typo must not
	// cost an O(N²) measurement run.
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "mctop", "dot":
	default:
		writeErrStatus(w, fmt.Errorf("%w: unknown format %q (json, mctop, dot)", mctoperr.ErrInvalidRequest, format))
		return
	}
	start := time.Now()
	// The request context bounds the inference: a client that disconnects
	// (or whose deadline fires) cancels a cold O(N²) measurement run
	// instead of leaving it to burn CPU for nobody.
	ctx, sv := registry.ContextWithServed(r.Context())
	top, cached, err := s.reg.LookupTopologyContext(ctx, platform, seed, opt)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	switch format {
	case "mctop":
		// The description file is the interchange file minus its #key
		// line (a key never holds a newline).
		b, err := spool.Encoded(sv.Entry)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeBody(w, "text/plain; charset=utf-8", b[bytes.IndexByte(b, '\n')+1:])
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, top.DotCrossSocket())
	default: // json
		b, err := topologyJSON(sv.Entry, platform, seed)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		tail := appendCached(make([]byte, 0, 64), cached)
		writeBody(w, "application/json", b, appendServedIn(tail, time.Since(start).String()))
	}
}

// placeResponse carries the placement's context assignment plus the derived
// Figure 7 report.
type placeResponse struct {
	Platform     string  `json:"platform"`
	Seed         uint64  `json:"seed"`
	Policy       string  `json:"policy"`
	NThreads     int     `json:"n_threads"`
	Contexts     []int   `json:"contexts"`
	NCores       int     `json:"n_cores"`
	CtxPerSocket []int   `json:"ctx_per_socket"`
	MaxLatency   int64   `json:"max_latency_cycles"`
	MinBandwidth float64 `json:"min_bandwidth_gbs"`
	Report       string  `json:"report"`
	ServedIn     string  `json:"served_in"`
}

func (s *server) handlePlace(w http.ResponseWriter, r *http.Request) {
	platform, seed, opt, err := s.query(r)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	q := r.URL.Query()
	policy := q.Get("policy")
	if policy == "" {
		writeErrStatus(w, fmt.Errorf("%w: missing ?policy= (one of: %s)", mctoperr.ErrInvalidRequest, strings.Join(mctop.PolicyNames(), ", ")))
		return
	}
	threads := 0
	if v := q.Get("threads"); v != "" {
		threads, err = strconv.Atoi(v)
		if err != nil || threads < 0 {
			writeErrStatus(w, fmt.Errorf("%w: bad threads %q", mctoperr.ErrInvalidRequest, v))
			return
		}
	}
	start := time.Now()
	ctx, sv := registry.ContextWithServed(r.Context())
	if _, err := s.reg.PlaceContext(ctx, platform, seed, opt, policy, threads); err != nil {
		// statusOf sorts the client's faults (unknown policy → 404, power
		// policy without power measurements or unsatisfiable options →
		// 400) from the server's (500).
		writeErrStatus(w, err)
		return
	}
	b, err := placeJSON(sv.Entry, platform, seed)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, "application/json", b, appendServedIn(make([]byte, 0, 48), time.Since(start).String()))
}

// maxBatchRequests bounds the placements one POST can demand, the
// connection-level backpressure of the batch API: a placement is cheap, but
// an unbounded batch is still an unbounded amount of work behind a single
// response deadline.
const maxBatchRequests = 1024

// batchRequest is the POST /v1/place/batch body.
type batchRequest struct {
	topoParams
	Requests []struct {
		Policy  string `json:"policy"`
		Threads int    `json:"threads"`
	} `json:"requests"`
}

// batchItemResponse is one element of the batch answer: a placeResponse
// without the request-level fields, or an inline error.
type batchItemResponse struct {
	Policy       string  `json:"policy"`
	Error        string  `json:"error,omitempty"`
	NThreads     int     `json:"n_threads,omitempty"`
	Contexts     []int   `json:"contexts,omitempty"`
	NCores       int     `json:"n_cores,omitempty"`
	CtxPerSocket []int   `json:"ctx_per_socket,omitempty"`
	MaxLatency   int64   `json:"max_latency_cycles,omitempty"`
	MinBandwidth float64 `json:"min_bandwidth_gbs,omitempty"`
}

type batchResponse struct {
	Platform string              `json:"platform"`
	Seed     uint64              `json:"seed"`
	Results  []batchItemResponse `json:"results"`
	ServedIn string              `json:"served_in"`
}

// batchItem renders one batch answer — the buffered and streaming
// endpoints share it so their per-item shape cannot diverge.
func batchItem(requestedPolicy string, pl *mctop.Placement, err error) batchItemResponse {
	item := batchItemResponse{Policy: requestedPolicy}
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.Policy = pl.PolicyName()
	item.NThreads = pl.NThreads()
	item.Contexts = pl.Contexts()
	item.NCores = pl.NCores()
	item.CtxPerSocket = pl.CtxPerSocket()
	item.MaxLatency = pl.MaxLatency()
	item.MinBandwidth = pl.MinBandwidth()
	return item
}

func (s *server) handlePlaceBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("batch placement is POST-only"))
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, "batch", &req); err != nil {
		writeErrStatus(w, err)
		return
	}
	platform, seed, opt, err := s.resolve(req.topoParams)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeErrStatus(w, fmt.Errorf("%w: empty batch: provide at least one {policy, threads} request", mctoperr.ErrInvalidRequest))
		return
	}
	if len(req.Requests) > maxBatchRequests {
		writeErrStatus(w, fmt.Errorf("%w: batch of %d requests exceeds the limit of %d", mctoperr.ErrTooLarge, len(req.Requests), maxBatchRequests))
		return
	}
	for i := range req.Requests {
		if req.Requests[i].Threads < 0 {
			writeErrStatus(w, fmt.Errorf("%w: request %d: bad threads %d", mctoperr.ErrInvalidRequest, i, req.Requests[i].Threads))
			return
		}
	}
	reqs := make([]mctop.PlaceRequest, len(req.Requests))
	for i, item := range req.Requests {
		reqs[i] = mctop.PlaceRequest{Policy: item.Policy, NThreads: item.Threads}
	}
	if r.URL.Query().Get("stream") == "1" {
		s.streamPlaceBatch(w, r, platform, seed, opt, reqs)
		return
	}
	start := time.Now()
	results, err := s.reg.PlaceBatchContext(r.Context(), platform, seed, opt, reqs)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	// The body is batchResponse as the encoder writes it: the header, each
	// item at depth 2 (placements from their entries, inline errors
	// rendered here), then served_in.
	b := make([]byte, 0, 512*len(results))
	b = append(b, "{\n  \"platform\": "...)
	b = appendJSONString(b, platform)
	b = append(b, ",\n  \"seed\": "...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, ",\n  \"results\": [\n"...)
	for i, res := range results {
		var item []byte
		if res.Err != nil {
			item, err = renderItem(batchItem(req.Requests[i].Policy, nil, res.Err))
		} else {
			item, err = placeItem(res.Entry)
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, item...)
	}
	b = append(b, "\n  ],\n"...)
	writeBody(w, "application/json", appendServedIn(b, time.Since(start).String()))
}

// streamPlaceBatch is the NDJSON variant of the batch endpoint
// (POST /v1/place/batch?stream=1): one batchItemResponse per line, written
// and flushed as each placement completes, so a client sweeping many
// configurations consumes results as they land instead of waiting for the
// slowest. Per-item failures are inline error objects; only a failure to
// resolve the topology itself — detected before the first line — fails
// the request with a status.
func (s *server) streamPlaceBatch(w http.ResponseWriter, r *http.Request, platform string, seed uint64, opt mctop.Options, reqs []mctop.PlaceRequest) {
	// Resolve the topology first: its failure (unknown platform, cancelled
	// cold inference) is request-level and must carry a status, which is
	// only possible before the 200 and the first line are committed.
	if _, _, err := s.reg.LookupTopologyContext(r.Context(), platform, seed, opt); err != nil {
		writeErrStatus(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // one compact JSON object per Encode call, newline-terminated
	for _, req := range reqs {
		if r.Context().Err() != nil {
			return // client gone; the stream is already truncated for them
		}
		pl, err := s.reg.PlaceContext(r.Context(), platform, seed, opt, req.Policy, req.NThreads)
		if err := enc.Encode(batchItem(req.Policy, pl, err)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleExport is the fleet endpoint: GET /v1/export?key=<registry key>
// serves the entry as its interchange file — a `#key`-headed .mctop
// description file for topology keys, a .place or .map sidecar for
// placement and mapping keys — exactly the bytes the spool tier persists
// (spool.Encode), which is what the remote store tier on an edge daemon
// consumes. The key is parsed back into the request it encodes and
// resolved through the registry, so an origin serves from its cache/spool
// when warm and infers (singleflight, compute semaphore and all) when
// cold: one origin can feed a fleet of edges that never infer. Keys that
// do not round-trip through the registry's own key builder are 404s — they
// cannot name a cache entry this daemon could ever produce.
func (s *server) handleExport(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErrStatus(w, fmt.Errorf("%w: missing ?key= (a registry topology or placement key)", mctoperr.ErrInvalidRequest))
		return
	}
	kind, ok := registry.KindOfKey(key)
	if !ok {
		writeErrStatus(w, noEntryError{fmt.Errorf("%w: key %q is not a topology, placement or mapping key", mctoperr.ErrInvalidRequest, key)})
		return
	}
	e, err := s.exportEntry(r.Context(), kind, key)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	b, err := spool.Encoded(e)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, "text/plain; charset=utf-8", b)
}

// noEntryError marks an export failure as "this key names nothing on this
// daemon": a 404 whatever the cause wraps.
type noEntryError struct{ error }

func (e noEntryError) Unwrap() error { return e.error }

// exportEntry resolves an export key to the entry it names.
func (s *server) exportEntry(ctx context.Context, kind registry.Kind, key string) (*registry.Entry, error) {
	ctx, sv := registry.ContextWithServed(ctx)
	switch kind {
	case registry.KindTopology:
		platform, seed, opt, err := s.exportTopoKey(key)
		if err != nil {
			return nil, err
		}
		_, _, err = s.reg.LookupTopologyContext(ctx, platform, seed, opt)
		return sv.Entry, err
	case registry.KindPlacement:
		topoKey, policy, threads, err := registry.ParsePlaceKey(key)
		if err != nil {
			return nil, noEntryError{err}
		}
		platform, seed, opt, err := s.exportTopoKey(topoKey)
		if err != nil {
			return nil, err
		}
		_, err = s.reg.PlaceContext(ctx, platform, seed, opt, policy, threads)
		return sv.Entry, err
	default:
		// Mapping keys identify the DAG by hash alone — the key cannot
		// reconstruct the DAG, so an origin serves mappings warm-only: a
		// mapping somebody POSTed to /v1/map is exportable; one nobody
		// computed is an honest 404 (the edge then computes locally). A
		// key that could never name an entry is a 400, per ParseMapKey's
		// ErrInvalidRequest contract. The warm-only lookup attributes and
		// counts the serve like any other registry hit.
		if _, _, _, _, _, err := registry.ParseMapKey(key); err != nil {
			return nil, err
		}
		e, ok := s.reg.Cached(ctx, kind, key)
		if !ok {
			return nil, noEntryError{fmt.Errorf("mapping %q is not cached on this daemon", key)}
		}
		return e, nil
	}
}

// exportTopoKey parses the topology key an export names and applies the
// same request bounds the query endpoints apply to their parameters: an
// edge's key must not demand work a direct request could not.
func (s *server) exportTopoKey(key string) (platform string, seed uint64, opt mctop.Options, err error) {
	if platform, seed, opt, err = registry.ParseTopoKey(key); err != nil {
		return "", 0, opt, noEntryError{err}
	}
	if err = s.validatePlatform(platform); err == nil {
		err = validateReps(opt.Normalized().Reps)
	}
	return platform, seed, opt, err
}

// statsResponse is registry.Stats plus the daemon's readiness view —
// additive fields, so clients decoding into registry.Stats keep working.
type statsResponse struct {
	registry.Stats
	Ready    bool           `json:"ready"`
	Degraded []degradedTier `json:"degraded,omitempty"`
}

// handleTraces dumps the tracer's bounded ring of finished, kept traces —
// oldest first, the local root leading each trace. JSON by default;
// ?format=ndjson emits one trace per line, for line-oriented tools (grep,
// jq). The route is exempt from tracing itself, so
// reading traces never creates them. With -trace-sample 0 the ring is
// simply empty, not an error.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.tracer.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteJSON(w, traces)
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		trace.WriteNDJSON(w, traces)
	default:
		writeErrStatus(w, fmt.Errorf("%w: unknown format %q (json, ndjson)", mctoperr.ErrInvalidRequest, format))
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One snapshot, taken before any response byte is written: Stats()
	// reads every counter exactly once in a fixed order (see its doc), so
	// a response scraped under load is internally consistent and two
	// successive scrapes never show a counter moving backwards — the same
	// snapshot discipline the /metrics mirror uses.
	st := s.reg.Stats()
	ready, degraded := s.readyState()
	writeJSON(w, http.StatusOK, statsResponse{Stats: st, Ready: ready, Degraded: degraded})
}
