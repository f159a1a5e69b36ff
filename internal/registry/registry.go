// Package registry is the concurrency-safe topology service layer on top of
// MCTOP-ALG and MCTOP-PLACE.
//
// The paper's deployment model is "infer once, reuse everywhere": a
// description file is "created once, then used to load the topology"
// (Section 2). Inference is O(N²) pair measurements and therefore orders of
// magnitude more expensive than any topology query, so a server answering
// topology or placement questions must never run it twice for the same
// inputs. The Registry memoizes inference results and derived placements
// under a key of (platform, seed, options-hash):
//
//   - tiered: the cache is one chain of Store tiers (store.go), each
//     holding and returning *Entry values. It always starts with the
//     registry's own exactly bounded in-memory LRU (lru.go), so a
//     long-running daemon's memory stays flat; the tiers Options.Tiers
//     names follow it — internal/spool's description-file tier makes the
//     cache survive restarts (a cold miss that hits the spool decodes a
//     description file instead of re-running the O(N²) inference),
//     internal/remote's fetches from an origin daemon;
//   - singleflight: concurrent LRU misses on the same key collapse into
//     one resolution — the first caller walks the tiers below the LRU and,
//     if none holds the key, computes; the rest wait for its result. This
//     is the only place concurrent misses coalesce: no tier does it again,
//     and no lock is held across a tier's Lookup or a computation;
//   - computing: a miss that no tier answers runs Infer, the simulate →
//     infer → enrich pipeline, unless Options.InferCtx replaces it.
//
// All methods are safe for concurrent use and pass `go test -race`.
package registry

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/taskmap"
	"repro/internal/topo"
	"repro/internal/trace"
)

// InferCtxFunc produces a topology for a platform/seed/options triple. The
// default runs Infer; the daemon puts its fault hooks in front of Infer,
// tests substitute cheap or counting implementations. The context is the
// one the winning caller of a singleflight wave passed in, and a
// conforming implementation returns ctx.Err() promptly once it fires.
type InferCtxFunc func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error)

// Infer is the simulate → infer → enrich pipeline: it simulates the named
// platform (a builtin or a gen: name) with the given noise seed, runs
// MCTOP-ALG on it under ctx with opt exactly as given, and enriches the
// result with all four plugins. The enriched topology is Result.Topology,
// with Enriched set. Unknown platforms wrap mctoperr.ErrUnknownPlatform; a
// cancelled inference returns ctx.Err().
func Infer(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*mctopalg.Result, error) {
	p, err := sim.ByName(platform)
	if err != nil {
		return nil, err
	}
	m, err := machine.NewSim(p, seed)
	if err != nil {
		return nil, err
	}
	res, err := mctopalg.InferContext(ctx, m, opt)
	if err != nil {
		return nil, err
	}
	if res.Topology, err = plugins.Enrich(m, res.Topology, nil); err != nil {
		return nil, err
	}
	res.Enriched = true
	return res, nil
}

// inferTopology is Infer as an InferCtxFunc: the registry's default
// compute path.
func inferTopology(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
	res, err := Infer(ctx, platform, seed, opt)
	if err != nil {
		return nil, err
	}
	return res.Topology, nil
}

// Options configures a Registry. The zero value of every field has a sane
// default.
type Options struct {
	// InferCtx computes a topology on a cache miss, honoring the context
	// of the caller that executes the computation. Nil defaults to Infer.
	InferCtx InferCtxFunc
	// Tiers are the cache tiers below the registry's own LRU, fastest
	// first: the chain is the LRU, then these. A lookup's fast path reads
	// the LRU alone; the owner of a miss walks the whole chain, so these
	// tiers sit behind the singleflight.
	Tiers []Store
	// MaxEntries is the exact bound of the registry's LRU (topologies,
	// placements and mappings each count as one entry). Default 256.
	MaxEntries int
	// MapFn computes a task-graph mapping on a cache miss. Nil defaults to
	// taskmap.Map; the daemon wraps the default for fault injection, tests
	// substitute counting implementations.
	MapFn MapFunc
}

// Stats is a snapshot of the registry's counters.
type Stats struct {
	Hits       int64 // lookups a tier answered (the LRU, or one below it on the owner's walk)
	Misses     int64 // lookups no tier answered: it computed, or waited on another caller's resolution
	Inferences int64 // actual topology inferences executed
	Placements int64 // actual placements computed
	Mappings   int64 // actual task-graph mappings computed
	Evictions  int64 // entries dropped by a capacity bound, summed over tiers
	Entries    int   // entries resident in the fastest tier
	// Tiers breaks the store down per tier (LRU, spool, …), fastest first.
	Tiers []StoreStats `json:",omitempty"`
}

// Registry memoizes topologies, placements and task-graph mappings.
type Registry struct {
	infer    InferCtxFunc
	mapFn    MapFunc
	store    *Tiered
	computes chan struct{} // semaphore over concurrent inferences, computeSlots wide

	// mu guards inflight, the singleflight table: the one place concurrent
	// misses on a key coalesce. It is held for map operations only, never
	// across a tier Lookup or a computation.
	mu       sync.Mutex
	inflight map[string]*call

	hits     atomic.Int64
	misses   atomic.Int64
	computed [NumKinds]atomic.Int64 // computations actually executed, per kind

	// observer receives compute-duration callbacks (observe.go); nil when
	// nothing is attached.
	observer atomic.Pointer[Observer]
}

// call is one in-flight resolution of a key: its owner's walk of the tiers
// below the LRU and, if none holds the key, its computation. Late arrivals
// wait on done and share its entry (or err) with the owner.
type call struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// New creates a registry.
func New(opt Options) *Registry {
	if opt.InferCtx == nil {
		opt.InferCtx = inferTopology
	}
	if opt.MapFn == nil {
		opt.MapFn = taskmap.Map
	}
	r := &Registry{
		infer:    opt.InferCtx,
		mapFn:    opt.MapFn,
		store:    &Tiered{tiers: append([]Store{NewLRU(opt.MaxEntries)}, opt.Tiers...)},
		computes: make(chan struct{}, computeSlots),
		inflight: make(map[string]*call),
	}
	return r
}

// computeSlots bounds how many cache misses may infer at once across the
// whole registry; further misses queue. One inference already fans out
// over GOMAXPROCS workers, so running many concurrently only
// oversubscribes the CPU — and without a bound a client sweeping distinct
// seeds can saturate a serving daemon indefinitely.
const computeSlots = 2

// get returns the cached entry for key, or resolves it exactly once per
// concurrent wave of callers (singleflight): the wave's owner walks the
// tier chain and, if no tier holds the key, computes its value via fn and
// writes the new entry through the chain. hit reports whether this call
// was answered by a tier without computing or waiting on another caller.
//
// Cancellation semantics: a waiter whose ctx fires while another caller
// resolves the key stops waiting and returns ctx.Err() — the resolution
// itself keeps running under its owner's context and still populates the
// cache. When the owner's own ctx fires, fn is expected to return
// ctx.Err(); nothing is cached and the in-flight slot is removed. Waiters
// of that wave whose contexts are still healthy do not inherit the owner's
// cancellation: they retry the lookup, and one of them becomes the next
// owner — one flaky client must not fail every concurrent miss on the key.
func (r *Registry) get(ctx context.Context, kind Kind, key string, fn func(context.Context) (any, error)) (e *Entry, hit bool, err error) {
	// The lookup span covers the whole resolution — LRU read, singleflight
	// wait or owned walk and compute — and records which tier answered.
	// With no span in ctx this is one context lookup and every call below
	// is a nil-receiver no-op.
	ctx, lsp := trace.Start(ctx, "registry.lookup")
	lsp.SetAttr("kind", kind.String())
	defer func() {
		lsp.SetBool("hit", hit)
		lsp.SetError(err)
		lsp.End()
	}()
	// Fast path: an LRU hit never touches the singleflight table.
	if e, tier, ok := r.store.tiers[0].Lookup(ctx, kind, key); ok {
		attribute(ctx, lsp, tier, e)
		r.hits.Add(1)
		return e, true, nil
	}

	waited := false // this call is at most one hit or one miss, even across retries
	var c *call
	for c == nil {
		r.mu.Lock()
		if w, ok := r.inflight[key]; ok {
			r.mu.Unlock()
			if !waited {
				waited = true
				r.misses.Add(1)
			}
			lsp.AddEvent("singleflight.wait")
			select {
			case <-w.done:
				if w.err != nil && ctx.Err() == nil &&
					(errors.Is(w.err, context.Canceled) || errors.Is(w.err, context.DeadlineExceeded)) {
					lsp.AddEvent("singleflight.retry") // the owner's ctx fired, not ours
					continue
				}
				if w.err == nil {
					attribute(ctx, lsp, "coalesced", w.entry)
				}
				return w.entry, false, w.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		c = &call{done: make(chan struct{})}
		r.inflight[key] = c
		r.mu.Unlock()
	}

	// The cleanup must run even if the walk or fn panics: leaving the
	// inflight entry behind would hang every future lookup of this key on
	// c.done. A panic still propagates to the owner, but waiters get an
	// error and later lookups retry.
	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("registry: resolving %q panicked", key)
		}
		r.mu.Lock()
		delete(r.inflight, key)
		r.mu.Unlock()
		close(c.done)
	}()

	lsp.AddEvent("singleflight.owner")
	// The owner walks the whole chain once, outside any lock. Its LRU read
	// is the re-check: an owner that published after the fast path missed
	// has cleared its slot by then, so its entry is in the LRU. A lower
	// tier's hit is promoted into the tiers above it, never written back.
	if e, tier, ok := r.store.Lookup(ctx, kind, key); ok {
		c.entry, completed = e, true
		attribute(ctx, lsp, tier, e)
		if !waited {
			r.hits.Add(1)
		}
		return e, !waited, nil
	}
	if !waited {
		r.misses.Add(1)
	}
	v, err := fn(ctx)
	if c.err = err; err == nil {
		c.entry = NewEntry(kind, key, v)
		// Publish before the cleanup clears the in-flight slot: a caller
		// that misses the LRU after this point either finds the entry on
		// its own walk or this call still registered.
		r.store.put(c.entry)
		// Overrides any tier a nested lookup attributed (a placement
		// compute looks up its topology): the request's answer was
		// computed here.
		attribute(ctx, lsp, "computed", c.entry)
	}
	completed = true
	return c.entry, false, c.err
}

// Cached is the warm-only lookup of the entry under key: it walks the tier
// chain as get's owner does — promoting a lower tier's hit — attributes the
// answering tier on the request's Served record, counts a hit and records
// the registry.lookup span exactly as get does, but never computes or
// joins a resolution — a key no tier holds is ok == false, and nothing is
// counted as a miss. It does not coalesce either: concurrent Cached calls
// each walk the chain. Callers are the serving paths that know a key
// without the request that would compute it: a mapping export, and a
// repeated /v1/map body.
func (r *Registry) Cached(ctx context.Context, kind Kind, key string) (e *Entry, ok bool) {
	ctx, lsp := trace.Start(ctx, "registry.lookup")
	lsp.SetAttr("kind", kind.String())
	defer func() {
		lsp.SetBool("hit", ok)
		lsp.End()
	}()
	e, tier, ok := r.store.Lookup(ctx, kind, key)
	if ok {
		attribute(ctx, lsp, tier, e)
		r.hits.Add(1)
	}
	return e, ok
}

// attribute records who answered a lookup — a store tier's name,
// "computed" or "coalesced" — and the entry it answered with on the
// request's Served record (request logs, the served-by-tier counters, the
// server's rendering), and the tier on the lookup span.
func attribute(ctx context.Context, lsp *trace.Span, tier string, e *Entry) {
	if sv, _ := ctx.Value(servedCtxKey{}).(*Served); sv != nil {
		sv.Tier, sv.Entry = tier, e
	}
	lsp.SetAttr("tier", tier)
}

// The option block of a topology key after r<reps>, one constant per
// sampling mode. Its fields name parameters that are constants
// (mctopalg's Section 3.5 values, the sampled mode's floor and probe count)
// and, at position 9, the removed forked-enrichment bit. The key format is
// a fixed point — spool file names, #key headers, export addresses — so
// the fields stay, with the values every key ever emitted carries.
const (
	topoKeyExhaustive = ",s0.07,sm0.14,mr3,cg0.04,ca10,cm0,su1000000,smpfalse,fefalse,sefalse,sp0,smc0,sv0"
	topoKeySampled    = ",s0.07,sm0.14,mr3,cg0.04,ca10,cm0,su1000000,smpfalse,fefalse,setrue,sp0,smc64,sv6"
)

// TopoKey is the registry's cache key for a topology:
// topo|<platform>|<seed>|r<reps> plus the option block's constant fields
// for the sampling mode. Distinct configurations never collide and the key
// stays stable across runs — the same key the spool tier persists in
// description files, so a restarted daemon rebuilds the exact mapping, and
// the key tools (mctop import/export) install or extract files under.
// Options are normalized first, so the zero value and an explicit Reps of
// 2000 share one entry. Parallelism is deliberately excluded: by
// construction it does not affect the inferred topology. Keys are built
// with strconv appends — this runs on every lookup of the serving hot path.
func TopoKey(platform string, seed uint64, opt mctopalg.Options) string {
	o := opt.Normalized()
	b := make([]byte, 0, 96)
	b = append(b, topoPrefix...)
	b = append(b, platform...)
	b = append(b, '|')
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, "|r"...)
	b = strconv.AppendInt(b, int64(o.Reps), 10)
	if o.Sampling {
		b = append(b, topoKeySampled...)
	} else {
		b = append(b, topoKeyExhaustive...)
	}
	return string(b)
}

// LookupTopologyContext returns the memoized topology for (platform, seed,
// opt), inferring it on first use, plus a per-call cache indicator: hit is
// true only when this call was answered from the store without running or
// waiting on an inference (servers report it per request; the global Stats
// counters cannot distinguish concurrent callers). A waiter stops waiting
// and returns ctx.Err() when its context fires, and the caller that owns
// the inference aborts it (the inference function returns ctx.Err()).
func (r *Registry) LookupTopologyContext(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, bool, error) {
	e, hit, err := r.get(ctx, KindTopology, TopoKey(platform, seed, opt), func(ctx context.Context) (any, error) {
		ctx, isp := trace.Start(ctx, "registry.infer")
		isp.SetAttr("platform", platform)
		defer isp.End()
		// Only inferences take a compute slot. Placement computes stay
		// ungated: they are cheap, and a placement miss computes its
		// topology through this very path — gating both would let two
		// placement misses exhaust the slots and deadlock on their
		// nested inferences. The acquire honors cancellation so a queued
		// caller can give up before its inference starts.
		select {
		case r.computes <- struct{}{}:
			isp.AddEvent("semaphore.acquired")
			defer func() { <-r.computes }()
		case <-ctx.Done():
			isp.SetError(ctx.Err())
			return nil, ctx.Err()
		}
		start := r.begin(KindTopology)
		t, err := r.infer(ctx, platform, seed, opt)
		r.observe(KindTopology, start, err)
		isp.SetError(err)
		return t, err
	})
	if err != nil {
		return nil, hit, err
	}
	return e.Val.(*topo.Topology), hit, nil
}

// placeKey extends a topology key with the placement parameters. Built with
// appends for the same reason TopoKey is: one of these is assembled per
// placement request on the serving hot path. The policy is identified by
// its Name — builtins keep the MCTOP_PLACE_* names they always had, so
// existing cache keys are unchanged; composed and user policies key by
// their own name (Orderer's contract: the name uniquely identifies the
// ordering).
func placeKey(tk string, pol place.Orderer, nThreads int) string {
	b := make([]byte, 0, len(tk)+32)
	b = append(b, placePrefix...)
	b = append(b, tk...)
	b = append(b, '|')
	b = append(b, pol.Name()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(nThreads), 10)
	return string(b)
}

// PlaceContext returns the memoized placement of nThreads threads under
// the named builtin policy (any name place.Resolve accepts) on the
// memoized topology for (platform, seed, opt), with
// LookupTopologyContext's cancellation semantics. The placement is shared
// between callers: treat it as read-only (Contexts, String, the Figure 7
// accessors) — the PinNext cursor is global to all users of the registry.
func (r *Registry) PlaceContext(ctx context.Context, platform string, seed uint64, opt mctopalg.Options, policy string, nThreads int) (*place.Placement, error) {
	pol, err := place.Resolve(policy)
	if err != nil {
		return nil, err
	}
	return r.PlaceWithContext(ctx, platform, seed, opt, pol, nThreads)
}

// PlaceWithContext places with a typed policy — a builtin place.Policy, a
// combinator chain, or any Orderer — against the memoized topology,
// memoizing the placement under the policy's Name. This is how callers
// place composed and user policies, which have no name to resolve.
func (r *Registry) PlaceWithContext(ctx context.Context, platform string, seed uint64, opt mctopalg.Options, pol place.Orderer, nThreads int) (*place.Placement, error) {
	if pol == nil {
		return nil, fmt.Errorf("%w: nil policy", place.ErrInvalid)
	}
	if pol.Name() == "" {
		// Placements memoize by policy name; an empty name would let every
		// anonymous policy share one cache slot and serve wrong mappings.
		return nil, fmt.Errorf("%w: policy has empty name", place.ErrInvalid)
	}
	key := placeKey(TopoKey(platform, seed, opt), pol, nThreads)
	e, _, err := r.get(ctx, KindPlacement, key, func(ctx context.Context) (any, error) {
		ctx, psp := trace.Start(ctx, "registry.place")
		psp.SetAttr("policy", pol.Name())
		defer psp.End()
		t, _, err := r.LookupTopologyContext(ctx, platform, seed, opt)
		if err != nil {
			psp.SetError(err)
			return nil, err
		}
		start := r.begin(KindPlacement)
		pl, err := place.NewFrom(t, pol, place.Options{NThreads: nThreads})
		r.observe(KindPlacement, start, err)
		psp.SetError(err)
		return pl, err
	})
	if err != nil {
		return nil, err
	}
	return e.Val.(*place.Placement), nil
}

// PlaceRequest is one (policy, threads) pair of a PlaceBatchContext call.
type PlaceRequest struct {
	Policy   string
	NThreads int
}

// BatchResult is one PlaceBatchContext answer: a placement and the cached
// entry holding it, or the per-request error that produced none (unknown
// policy, POWER without power data, …).
type BatchResult struct {
	Placement *place.Placement
	Entry     *Entry
	Err       error
}

// PlaceBatchContext answers many placement requests against one topology
// in a single call: the (platform, seed, opt) lookup — and, on a cold
// start, the O(N²) inference — happens once, and every request is served
// from the same topology's precomputed query index. Results are cached
// under the same keys PlaceContext uses, so batch and single-request
// traffic share entries. Per-request failures land in the matching
// BatchResult; the returned error is reserved for the topology itself being
// unavailable. The context covers the topology lookup and every per-request
// placement, so a request deadline bounds the whole batch.
func (r *Registry) PlaceBatchContext(ctx context.Context, platform string, seed uint64, opt mctopalg.Options, reqs []PlaceRequest) ([]BatchResult, error) {
	t, _, err := r.LookupTopologyContext(ctx, platform, seed, opt)
	if err != nil {
		return nil, err
	}
	tk := TopoKey(platform, seed, opt)
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pol, err := place.Resolve(req.Policy)
		if err != nil {
			out[i].Err = err
			continue
		}
		nThreads := req.NThreads
		e, _, err := r.get(ctx, KindPlacement, placeKey(tk, pol, nThreads), func(context.Context) (any, error) {
			start := r.begin(KindPlacement)
			pl, err := place.NewFrom(t, pol, place.Options{NThreads: nThreads})
			r.observe(KindPlacement, start, err)
			return pl, err
		})
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Placement, out[i].Entry = e.Val.(*place.Placement), e
	}
	return out, nil
}

// Stats snapshots the registry's counters. The snapshot is not one atomic
// cut — counters keep advancing while it is taken — but every field is read
// exactly once, in a fixed order (registry counters first, then the tier
// snapshots, then residency), so each individual counter is monotonically
// non-decreasing across successive snapshots and a scraper diffing two
// snapshots never sees a counter move backwards.
func (r *Registry) Stats() Stats {
	hits := r.hits.Load()
	misses := r.misses.Load()
	inferences := r.computed[KindTopology].Load()
	placements := r.computed[KindPlacement].Load()
	mappings := r.computed[KindMapping].Load()
	tiers := r.store.Stats()
	var evictions int64
	for _, t := range tiers {
		evictions += t.Evictions
	}
	return Stats{
		Hits:       hits,
		Misses:     misses,
		Inferences: inferences,
		Placements: placements,
		Mappings:   mappings,
		Evictions:  evictions,
		Entries:    r.store.Len(),
		Tiers:      tiers,
	}
}

// Store returns the registry's tier chain, for tools that read or seed
// entries outside any request (Tiered.Get, Put).
func (r *Registry) Store() *Tiered { return r.store }

// Flush blocks until every tier with buffered writes has persisted them —
// what a daemon calls on SIGTERM so a restart warm-starts from a complete
// spool. A registry with no tier below its LRU flushes trivially.
func (r *Registry) Flush() error { return r.store.Flush() }

// Close flushes and releases tier resources (background writers). The
// registry itself remains usable for in-memory lookups, but persistent
// tiers stop accepting writes.
func (r *Registry) Close() error { return r.store.Close() }
