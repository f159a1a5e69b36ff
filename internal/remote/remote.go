// Package remote is the fleet tier of the registry's tiered store: a
// registry.Store backed by an upstream mctopd's /v1/export endpoint.
//
// The paper's deployment model — a topology is "created once, then used to
// load the topology" (Section 2) — distributed: one origin daemon runs the
// O(N²) inference, and every edge daemon's registry reads this tier last,
// after its own LRU (and spool), so a local miss fetches the origin's
// description file instead of re-measuring. A fetch decodes into the
// *registry.Entry the tier returns. The wire format is exactly the spool's
// interchange format (`#key`-headed .mctop description files, .place
// sidecars), so a fetched entry is byte-identical to what the origin would
// spool — and is write-through-promoted into the edge's own spool by the
// tier chain.
//
// The Store contract shapes every failure path: a store never fails, it
// misses. Concretely:
//
//   - timeouts, connection errors and 5xx responses are retried a bounded
//     number of times with jittered backoff (a single blip must not open
//     the down window), then degrade to a miss (the edge re-infers
//     locally) and open an origin-level backoff window, exponential up to
//     a bound, so a down origin costs one failed fetch per window instead
//     of one per request;
//   - 4xx responses and undecodable bodies degrade to a miss and a
//     per-key negative-cache entry, so a key the origin cannot serve is
//     not re-requested on every lookup.
//
// The tier does not coalesce concurrent Lookups itself: the registry's
// singleflight runs one walk of the chain per key at a time, so a
// thundering herd on a cold edge costs the origin one request.
//
// Put is a no-op: edges never push to the origin; the origin populates
// itself through its own registry.
package remote

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/spool"
	"repro/internal/topo"
	"repro/internal/trace"
)

const (
	// DefaultTimeout bounds one upstream fetch (the Store interface is
	// synchronous, so this is also how long a cold Lookup can block a
	// serving request). A warm origin answers in milliseconds; an origin
	// that has to infer first may exceed this, in which case the edge
	// infers locally too and the origin's entry lands on the next miss.
	DefaultTimeout = 15 * time.Second
	// defaultNegTTL is the per-key negative-cache window and the base of
	// the origin-down backoff.
	defaultNegTTL = 2 * time.Second
	// defaultBackoffMax caps the origin-down exponential backoff.
	defaultBackoffMax = 30 * time.Second
	// maxBodyBytes bounds one fetched description file (the largest
	// golden platform is well under 1 MiB).
	maxBodyBytes = 8 << 20
	// maxNegEntries bounds the per-key negative cache on edges with a
	// varied key stream; past it, expired entries are swept on insert.
	maxNegEntries = 1024
	// defaultRetries is how many times an origin-level fetch failure is
	// retried before degrading to a miss, and defaultRetryBase the base of
	// the jittered delay between attempts. One retry at tens of
	// milliseconds rides out a connection blip or a rolling restart
	// without stretching a serving request, and stays well inside the
	// origin-down window the final failure opens.
	defaultRetries   = 1
	defaultRetryBase = 25 * time.Millisecond
)

// Remote is a registry.Store that reads through an upstream mctopd.
type Remote struct {
	base       string
	client     *http.Client
	timeout    time.Duration
	negTTL     time.Duration
	backoffMax time.Duration
	logf       func(format string, args ...any)
	// now is the tier's clock: every negative-cache/backoff decision and
	// every observed fetch duration reads it, never time.Now directly, so
	// fault tests inject a clock (WithClock) and step through backoff
	// windows instantly.
	now func() time.Time

	// retries/retryBase bound the in-call retry loop on origin faults;
	// sleep and jitterState are the injectable delay machinery (tests make
	// the sleep free; the jitter stream is seeded, not wall-clock).
	retries     int
	retryBase   time.Duration
	sleep       func(d time.Duration)
	jitterState uint64

	mu    sync.Mutex
	neg   map[string]time.Time // per-key: no refetch before this instant
	down  time.Time            // origin-level: no fetch at all before this
	fails int                  // consecutive origin-level failures

	// topos memoizes every fetched topology still alive: a sidecar
	// references its topology by key, and resolves it here instead of
	// re-fetching (and re-decoding) it while anything still uses it. It
	// never keeps a topology alive.
	topos spool.TopoMemo

	kinds   registry.KindCounters
	errors  atomic.Int64
	fetches atomic.Int64 // upstream requests actually issued

	// observe, when set, receives one callback per upstream fetch attempt
	// with its wall duration and outcome ("ok", "origin_fault",
	// "key_fault") — the feed behind mctopd's per-origin fetch-latency
	// histogram. Runs on the fetching goroutine; must be cheap.
	observe func(d time.Duration, outcome string)
}

// Option configures a Remote.
type Option func(*Remote)

// WithTimeout bounds each upstream fetch (default DefaultTimeout).
func WithTimeout(d time.Duration) Option {
	return func(r *Remote) { r.timeout = d }
}

// WithNegTTL sets the per-key negative-cache window and the base of the
// origin-down backoff (default 2s).
func WithNegTTL(d time.Duration) Option {
	return func(r *Remote) { r.negTTL = d }
}

// WithBackoffMax caps the origin-down exponential backoff (default 30s).
func WithBackoffMax(d time.Duration) Option {
	return func(r *Remote) { r.backoffMax = d }
}

// WithLogf redirects the tier's degradation log lines (default log.Printf
// with a "remote: " prefix).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(r *Remote) { r.logf = logf }
}

// WithHTTPClient substitutes the HTTP client (the per-fetch timeout still
// comes from WithTimeout, via the request context). This is also the seam
// fault injection uses: a client whose Transport is a
// faultinject.Transport makes the origin flap on demand.
func WithHTTPClient(c *http.Client) Option {
	return func(r *Remote) { r.client = c }
}

// WithClock substitutes the tier's clock (default time.Now). Every
// negative-cache and backoff window decision reads it, so a test can hold
// or step time and walk the tier through down/recovered transitions
// deterministically, without sleeping through real windows.
func WithClock(now func() time.Time) Option {
	return func(r *Remote) { r.now = now }
}

// WithRetries bounds the in-call retry loop on origin-level fetch
// failures (default 1; 0 disables retries). Retries are spaced by a
// jittered multiple of base (default 25ms) — kept deliberately small so
// the total retry budget stays inside one origin-down window.
func WithRetries(n int, base time.Duration) Option {
	return func(r *Remote) {
		r.retries = n
		if base > 0 {
			r.retryBase = base
		}
	}
}

// WithObserver attaches a per-fetch callback: one call per upstream fetch
// attempt with its wall duration and outcome — "ok", "origin_fault" (dial
// error, timeout, 5xx: the failures that open the backoff window) or
// "key_fault" (4xx, undecodable body: negative-cached per key). The
// callback runs on the fetching goroutine and must be cheap and
// concurrency-safe.
func WithObserver(fn func(d time.Duration, outcome string)) Option {
	return func(r *Remote) { r.observe = fn }
}

// New creates a remote tier reading through the mctopd at base (e.g.
// "http://origin:8077"). The origin's availability is probed lazily — a
// Remote over an unreachable origin constructs fine and simply misses.
func New(base string, opts ...Option) *Remote {
	r := &Remote{
		base:        strings.TrimRight(base, "/"),
		client:      &http.Client{},
		timeout:     DefaultTimeout,
		negTTL:      defaultNegTTL,
		backoffMax:  defaultBackoffMax,
		logf:        func(format string, args ...any) { log.Printf("remote: "+format, args...) },
		now:         time.Now,
		retries:     defaultRetries,
		retryBase:   defaultRetryBase,
		sleep:       time.Sleep,
		jitterState: rng.Increment,
		neg:         make(map[string]time.Time),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Lookup implements registry.Store: fetch the entry's description file
// from the origin and decode it into a fresh entry, degrading every
// failure to a miss. The context carries tracing only — each upstream
// attempt becomes a span, and the traceparent header it emits stitches the
// origin's spans into this trace. It deliberately does NOT carry
// cancellation: the fetch keeps its own timeout-from-Background context, so
// a fetch whose entry the registry's singleflight waiters share survives
// its owner hanging up (see fetch).
func (r *Remote) Lookup(ctx context.Context, kind registry.Kind, key string) (*registry.Entry, string, bool) {
	if e := r.lookup(ctx, kind, key); e != nil {
		r.kinds.Hit(kind)
		return e, "remote", true
	}
	r.kinds.Miss(kind)
	return nil, "", false
}

func (r *Remote) lookup(ctx context.Context, kind registry.Kind, key string) *registry.Entry {
	now := r.now()
	r.mu.Lock()
	if until, ok := r.neg[key]; ok && !now.Before(until) {
		delete(r.neg, key) // expired; drop eagerly so the map tracks live entries
	}
	if now.Before(r.down) || now.Before(r.neg[key]) {
		r.mu.Unlock()
		// No fetch happens, so no span: note the skip on the enclosing
		// lookup span instead — the trace of a request served by local
		// re-inference should say why the origin was not consulted.
		trace.SpanFromContext(ctx).AddEvent("remote.backoff_skip")
		return nil
	}
	r.mu.Unlock()

	e, err, originFault := r.fetchObserved(ctx, kind, key, 0, 0)
	// Bounded retries on origin faults only: a connection blip or one 5xx
	// is retried after a short jittered delay instead of immediately
	// opening the origin-down window; key-level faults (4xx, undecodable
	// bodies) retry nothing — the origin answered, the answer won't change.
	for attempt := 0; err != nil && originFault && attempt < r.retries; attempt++ {
		delay := r.jitteredDelay(attempt)
		r.sleep(delay)
		e, err, originFault = r.fetchObserved(ctx, kind, key, attempt+1, delay)
	}
	now = r.now()
	r.mu.Lock()
	switch {
	case err == nil:
		r.fails = 0
		delete(r.neg, key)
	case originFault:
		// Exponential origin-level backoff: a down origin costs one
		// failed dial per window, not one per request.
		if r.fails < 16 { // cap the shift; the backoff is bounded anyway
			r.fails++
		}
		backoff := r.negTTL << (r.fails - 1)
		if backoff > r.backoffMax || backoff <= 0 {
			backoff = r.backoffMax
		}
		r.down = now.Add(backoff)
	default:
		// The origin answered but cannot serve this key (or served bytes
		// we cannot decode): negative-cache the key alone. The map is
		// bounded: keys that are never looked up again would otherwise
		// accumulate forever on an edge with a varied key stream, so past
		// the bound expired entries are swept — and if every entry is
		// live, the cache is dropped wholesale (it is an optimization;
		// the cost is refetches, never wrong results).
		if len(r.neg) >= maxNegEntries {
			for k, until := range r.neg {
				if !now.Before(until) {
					delete(r.neg, k)
				}
			}
			if len(r.neg) >= maxNegEntries {
				r.neg = make(map[string]time.Time)
			}
		}
		r.neg[key] = now.Add(r.negTTL)
	}
	r.mu.Unlock()

	if err != nil {
		r.logf("fetching %q: %v (degrading to a miss)", key, err)
		r.errors.Add(1)
	}
	return e // nil on every failure
}

// fetchObserved is one fetch attempt plus its observer callback — each
// retry attempt is observed individually, so the fetch-latency histogram
// and outcome counters see every upstream request, not just the last.
// attempt and backoff annotate the attempt's span: which retry this is and
// how long the jittered pause before it was.
func (r *Remote) fetchObserved(ctx context.Context, kind registry.Kind, key string, attempt int, backoff time.Duration) (e *registry.Entry, err error, originFault bool) {
	start := r.now()
	e, err, originFault = r.fetch(ctx, kind, key, attempt, backoff)
	if r.observe != nil {
		outcome := "ok"
		switch {
		case err != nil && originFault:
			outcome = "origin_fault"
		case err != nil:
			outcome = "key_fault"
		}
		r.observe(r.now().Sub(start), outcome)
	}
	return e, err, originFault
}

// jitteredDelay is the pause before retry attempt n: retryBase * 2^n,
// scaled by a deterministic jitter in [0.5, 1.5) drawn from a seeded
// stream (internal/rng) — never from the wall clock, so two runs with the
// same fetch sequence delay identically.
func (r *Remote) jitteredDelay(attempt int) time.Duration {
	base := r.retryBase << attempt
	r.mu.Lock()
	state := r.jitterState
	r.jitterState += rng.Increment
	r.mu.Unlock()
	z := rng.Mix(state)
	frac := float64(z>>11) / (1 << 53) // [0, 1)
	return time.Duration(float64(base) * (0.5 + frac))
}

// fetch performs one upstream GET and decodes the body into the entry.
// originFault distinguishes origin-level failures (dial errors, timeouts,
// 5xx — back off from the origin) from per-key ones (4xx, undecodable
// bodies — negative-cache the key).
//
// The HTTP request runs under its own timeout-from-Background context —
// NOT the caller's — so a fetch whose entry the registry's singleflight
// waiters share is never cancelled by its owner hanging up. The caller's context
// contributes tracing only: this attempt's span, and the traceparent
// header that makes the origin's handler a child of it.
func (r *Remote) fetch(ctx context.Context, kind registry.Kind, key string, attempt int, backoff time.Duration) (e *registry.Entry, err error, originFault bool) {
	ctx, sp := trace.Start(ctx, "remote.fetch")
	sp.SetInt("attempt", int64(attempt))
	if backoff > 0 {
		sp.SetAttr("backoff", backoff.String())
	}
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	reqCtx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet,
		r.base+"/v1/export?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, err, false
	}
	if h := sp.Traceparent(); h != "" {
		req.Header.Set("traceparent", h)
	}
	r.fetches.Add(1)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err, true
	}
	defer resp.Body.Close()
	body := io.LimitReader(resp.Body, maxBodyBytes)
	if resp.StatusCode != http.StatusOK {
		// Drain a little for connection reuse; the error carries the code.
		io.CopyN(io.Discard, body, 4096)
		return nil, fmt.Errorf("origin returned %s", resp.Status), resp.StatusCode >= 500
	}
	e, err = spool.Decode(body, kind, key, func(topoKey string) (*topo.Topology, error) {
		return r.topologyFor(ctx, topoKey)
	})
	if err != nil {
		return nil, err, false
	}
	if t, ok := e.Val.(*topo.Topology); ok {
		r.topos.Set(key, t)
	}
	return e, nil, false
}

// topologyFor resolves the topology a sidecar references: the memo first,
// then a recursive lookup of this tier alone, under its negative cache and
// origin-down window — so sidecars of one topology looked up one after
// another fetch it once. This nested lookup is the one the registry's
// singleflight does not cover: concurrent sidecar fetches of different keys
// over one cold topology may each fetch it. The context parents the nested
// fetch's span under the sidecar attempt.
func (r *Remote) topologyFor(ctx context.Context, topoKey string) (*topo.Topology, error) {
	if t := r.topos.Get(topoKey); t != nil {
		return t, nil
	}
	e, _, ok := r.Lookup(ctx, registry.KindTopology, topoKey)
	if !ok {
		return nil, fmt.Errorf("not fetchable")
	}
	return e.Val.(*topo.Topology), nil
}

// Put implements registry.Store as a no-op: the fleet is pull-only — an
// edge never pushes what it inferred to the origin (the origin computes or
// spools its own entries). Tiered write-through therefore stops here.
func (r *Remote) Put(*registry.Entry) {}

// Len implements registry.Store: a remote tier holds nothing locally.
func (r *Remote) Len() int { return 0 }

// Stats implements registry.Store.
func (r *Remote) Stats() []registry.StoreStats {
	st := registry.StoreStats{Tier: "remote", Errors: r.errors.Load()}
	r.kinds.Snapshot(&st, [registry.NumKinds]int{})
	return []registry.StoreStats{st}
}

// Flush implements registry.Store: Put is a no-op, so nothing is pending.
func (r *Remote) Flush() error { return nil }

// Close implements registry.Store: the tier holds no resources.
func (r *Remote) Close() error { return nil }

// BackoffState is a point-in-time snapshot of the tier's failure-handling
// machinery, exposed for /metrics gauges.
type BackoffState struct {
	// DownUntil is the end of the current origin-level backoff window
	// (zero when the origin is not being backed off).
	DownUntil time.Time
	// ConsecutiveFails counts origin-level failures since the last
	// successful fetch (the backoff exponent).
	ConsecutiveFails int
	// NegativeKeys is the number of per-key negative-cache entries.
	NegativeKeys int
}

// Backoff snapshots the backoff/negative-cache state.
func (r *Remote) Backoff() BackoffState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BackoffState{
		DownUntil:        r.down,
		ConsecutiveFails: r.fails,
		NegativeKeys:     len(r.neg),
	}
}

// Fetches reports how many upstream requests were actually issued —
// what the registry's singleflight, the topology memo and the negative
// caches exist to minimize.
func (r *Remote) Fetches() int64 { return r.fetches.Load() }
