package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

// bg is the context of every lookup that exercises no cancellation.
var bg = context.Background()

// realInfer is the full pipeline (simulate + infer + enrich) the facade
// installs; registry tests that need genuine topologies use it directly to
// avoid an import cycle with the root package.
func realInfer(_ context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
	p, err := sim.ByName(platform)
	if err != nil {
		return nil, err
	}
	m, err := machine.NewSim(p, seed)
	if err != nil {
		return nil, err
	}
	res, err := mctopalg.InferContext(context.Background(), m, opt)
	if err != nil {
		return nil, err
	}
	return plugins.Enrich(m, res.Topology, nil)
}

// fakeTopo builds a tiny real topology once; tests that only exercise cache
// mechanics share it through a stub InferCtxFunc.
var fakeTopo = sync.OnceValue(func() *topo.Topology {
	t, err := realInfer(bg, "Ivy", 1, mctopalg.Options{Reps: 51})
	if err != nil {
		panic(err)
	}
	return t
})

func TestSingleflightCollapsesConcurrentInferences(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond) // widen the window for the herd
		return fakeTopo(), nil
	}})

	const herd = 32
	var wg sync.WaitGroup
	tops := make([]*topo.Topology, herd)
	for i := 0; i < herd; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			top, _, err := r.LookupTopologyContext(bg, "Ivy", 42, mctopalg.Options{Reps: 51})
			if err != nil {
				t.Error(err)
				return
			}
			tops[i] = top
		}()
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("herd of %d triggered %d inferences, want 1", herd, n)
	}
	for i := 1; i < herd; i++ {
		if tops[i] != tops[0] {
			t.Fatalf("caller %d got a different *Topology than caller 0", i)
		}
	}
	st := r.Stats()
	if st.Inferences != 1 || st.Entries != 1 {
		t.Errorf("stats after herd: %+v", st)
	}
}

func TestConcurrentMixedReadersWriters(t *testing.T) {
	// Mixed workload across many keys under -race: topology hits, topology
	// misses, placements, stats reads and purges, all concurrent.
	r := New(Options{MaxEntries: 32,
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			return fakeTopo(), nil
		}})
	opt := mctopalg.Options{Reps: 51}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				seed := uint64((g + i) % 8)
				switch i % 3 {
				case 0:
					if _, _, err := r.LookupTopologyContext(bg, "Ivy", seed, opt); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := r.PlaceContext(bg, "Ivy", seed, opt, "RR_CORE", 8); err != nil {
						t.Error(err)
					}
				case 2:
					r.Stats()
				}
			}
		}()
	}
	wg.Wait()
}

func TestComputeConcurrencyBound(t *testing.T) {
	var cur, max atomic.Int64
	r := New(Options{
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			cur.Add(-1)
			return fakeTopo(), nil
		}})
	opt := mctopalg.Options{Reps: 51}

	var wg sync.WaitGroup
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.LookupTopologyContext(bg, "Ivy", seed, opt); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if m := max.Load(); m > computeSlots {
		t.Fatalf("observed %d concurrent inferences, bound is %d", m, computeSlots)
	}
	// Placement misses must not consume compute slots (their nested
	// topology computes do) — otherwise two placement misses could
	// deadlock on the semaphore.
	done := make(chan error, 1)
	go func() {
		_, err := r.PlaceContext(bg, "Ivy", 100, opt, "RR_CORE", 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("placement miss deadlocked on the compute semaphore")
	}
}

func TestLRUBoundAndEviction(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{MaxEntries: 4,
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			calls.Add(1)
			return fakeTopo(), nil
		}})
	opt := mctopalg.Options{Reps: 51}

	for seed := uint64(0); seed < 8; seed++ {
		if _, _, err := r.LookupTopologyContext(bg, "Ivy", seed, opt); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Stats().Entries; n != 4 {
		t.Fatalf("entries = %d, want the MaxEntries bound of 4", n)
	}
	if ev := r.Stats().Evictions; ev != 4 {
		t.Fatalf("evictions = %d, want 4", ev)
	}

	// Seeds 4..7 are resident; 4 is now least recently used. Touch it, then
	// insert one more: seed 5 must be the victim.
	calls.Store(0)
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 4, opt); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatal("seed 4 should have been a cache hit")
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 8, opt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 4, opt); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("after touch+insert, re-reading seed 4 cost %d inferences, want 0 (LRU should have evicted 5)", calls.Load()-1+1)
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 5, opt); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatal("seed 5 should have been evicted and re-inferred")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return fakeTopo(), nil
	}})
	opt := mctopalg.Options{Reps: 51}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, opt); !errors.Is(err, boom) {
		t.Fatalf("first call err = %v, want boom", err)
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, opt); err != nil {
		t.Fatalf("second call should retry and succeed, got %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (errors must not be cached)", calls.Load())
	}
}

func TestPanickingInferDoesNotWedgeTheKey(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond) // hold the key so the waiter joins in-flight
			panic("inference exploded")
		}
		return fakeTopo(), nil
	}})
	opt := mctopalg.Options{Reps: 51}

	// A waiter that joins the in-flight panicking computation must get an
	// error, not hang.
	waited := make(chan error, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		go func() {
			time.Sleep(10 * time.Millisecond) // join while the leader holds the key
			_, _, err := r.LookupTopologyContext(bg, "Ivy", 1, opt)
			waited <- err
		}()
		r.LookupTopologyContext(bg, "Ivy", 1, opt)
	}()
	select {
	case err := <-waited:
		if err == nil {
			t.Error("waiter on a panicked computation got a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung on a panicked computation")
	}

	// The key must be retryable afterwards.
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, opt); err != nil {
		t.Fatalf("lookup after panic failed: %v", err)
	}
}

func TestOptionsKeyDistinguishesConfigurations(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		return fakeTopo(), nil
	}})
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, mctopalg.Options{Reps: 51}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, mctopalg.Options{Reps: 101}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct Reps shared one cache entry (calls = %d)", calls.Load())
	}
	// Parallelism must NOT split the cache: the result is identical by
	// construction.
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 1, mctopalg.Options{Reps: 51, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatal("Parallelism leaked into the cache key")
	}
	// Zero-value options and explicit defaults are the same inference and
	// must share one entry (keys are normalized before hashing).
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 2, mctopalg.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 2, mctopalg.Options{Reps: 2000}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("zero-value and explicit default reps split into %d entries, want 1", calls.Load()-2)
	}
	// The sampled mode can select different work and must split the cache.
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 2, mctopalg.Options{Sampling: true}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Fatal("Sampling missing from the cache key")
	}
}

func TestPlaceCachedAndDerivedFromCachedTopology(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(_ context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		return realInfer(bg, platform, seed, opt)
	}})
	opt := mctopalg.Options{Reps: 51}

	p1, err := r.PlaceContext(bg, "Ivy", 42, opt, "CON_HWC", 30)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.PlaceContext(bg, "Ivy", 42, opt, "CON_HWC", 30)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical placement queries returned distinct placements")
	}
	if p1.NThreads() != 30 || p1.Policy() != place.ConHWC {
		t.Fatalf("placement wrong: %d threads, policy %v", p1.NThreads(), p1.Policy())
	}
	// A different policy on the same platform reuses the cached topology.
	if _, err := r.PlaceContext(bg, "Ivy", 42, opt, "RR_CORE", 8); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("inferences = %d, want 1 (placements must share the topology)", calls.Load())
	}
	if _, err := r.PlaceContext(bg, "Ivy", 42, opt, "NO_SUCH_POLICY", 8); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestCachedLookupSpeedup is the acceptance check of the service layer: a
// cached Topology lookup must be at least 100x faster than a cold
// inference. The margin in practice is ~10^4-10^5, so the assertion is
// far from flaky.
func TestCachedLookupSpeedup(t *testing.T) {
	r := New(Options{InferCtx: realInfer})
	opt := mctopalg.Options{Reps: 51}

	coldStart := time.Now()
	if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)

	const hits = 1000
	hitStart := time.Now()
	for i := 0; i < hits; i++ {
		if _, _, err := r.LookupTopologyContext(bg, "Ivy", 42, opt); err != nil {
			t.Fatal(err)
		}
	}
	hit := time.Since(hitStart) / hits
	if hit == 0 {
		hit = 1
	}
	speedup := float64(cold) / float64(hit)
	t.Logf("cold infer %v, cached lookup %v, speedup %.0fx", cold, hit, speedup)
	if speedup < 100 {
		t.Fatalf("cached lookup only %.1fx faster than cold inference, want >= 100x", speedup)
	}
}

// TestLRUHoldsExactlyItsBound: N distinct keys fit in NewLRU(N) with no
// eviction, and the next key evicts exactly the least recently used one.
func TestLRUHoldsExactlyItsBound(t *testing.T) {
	const n = 256
	l := NewLRU(n)
	key := func(i int) string {
		return placeKey(TopoKey("Ivy", uint64(i), mctopalg.Options{Reps: 51}), place.ConHWC, 8)
	}
	for i := 0; i < n; i++ {
		l.Put(KindPlacement, key(i), NewEntry(KindPlacement, key(i), i))
	}
	if st := l.Stats()[0]; l.Len() != n || st.Evictions != 0 {
		t.Fatalf("%d keys into NewLRU(%d): %d resident, %d evictions", n, n, l.Len(), st.Evictions)
	}
	// Touch key 0, so key 1 is now the least recently used.
	if _, _, ok := l.Lookup(bg, KindPlacement, key(0)); !ok {
		t.Fatal("key 0 missing")
	}
	l.Put(KindPlacement, key(n), NewEntry(KindPlacement, key(n), n))
	if st := l.Stats()[0]; l.Len() != n || st.Evictions != 1 {
		t.Fatalf("after key %d: %d resident, %d evictions, want %d and 1", n, l.Len(), st.Evictions, n)
	}
	for i := 0; i <= n; i++ {
		if _, _, ok := l.Lookup(bg, KindPlacement, key(i)); ok == (i == 1) {
			t.Fatalf("key %d resident = %v; only key 1 (the least recently used) may be evicted", i, ok)
		}
	}
}

func TestFlightStripesSpreadKeys(t *testing.T) {
	r := New(Options{
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			return fakeTopo(), nil
		}})
	flights := map[*flightShard]bool{}
	for i := 0; i < 64; i++ {
		flights[r.flightOf(fmt.Sprintf("topo|Ivy|%d|", i))] = true
	}
	if len(flights) < 2 {
		t.Fatalf("64 keys landed on %d flight stripe(s); hashing is broken", len(flights))
	}
}

// TestPlaceBatchSharesTopologyAndCache: a batch must infer at most once,
// share cache entries with single-request Place calls, and report
// per-request errors without failing the whole batch.
func TestPlaceBatchSharesTopologyAndCache(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(_ context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		return realInfer(bg, platform, seed, opt)
	}})
	opt := mctopalg.Options{Reps: 51}

	reqs := []PlaceRequest{
		{Policy: "CON_HWC", NThreads: 30},
		{Policy: "RR_CORE", NThreads: 8},
		{Policy: "NO_SUCH_POLICY", NThreads: 4},
		{Policy: "SEQUENTIAL", NThreads: 0},
	}
	results, err := r.PlaceBatchContext(bg, "Ivy", 42, opt, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	if calls.Load() != 1 {
		t.Fatalf("inferences = %d, want 1 (the batch must share one topology lookup)", calls.Load())
	}
	for i, res := range results {
		wantErr := reqs[i].Policy == "NO_SUCH_POLICY"
		if wantErr {
			if !errors.Is(res.Err, place.ErrInvalid) {
				t.Errorf("request %d: err = %v, want ErrInvalid", i, res.Err)
			}
			continue
		}
		if res.Err != nil || res.Placement == nil {
			t.Fatalf("request %d: (%v, %v)", i, res.Placement, res.Err)
		}
	}
	if got := results[0].Placement.NThreads(); got != 30 {
		t.Errorf("CON_HWC placement has %d threads, want 30", got)
	}

	// Batch entries and single-request entries share the cache: the same
	// placement pointer comes back both ways, with no new inference.
	single, err := r.PlaceContext(bg, "Ivy", 42, opt, "CON_HWC", 30)
	if err != nil {
		t.Fatal(err)
	}
	if single != results[0].Placement {
		t.Error("single Place after PlaceBatch returned a distinct placement")
	}
	again, err := r.PlaceBatchContext(bg, "Ivy", 42, opt, reqs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Placement != results[0].Placement || again[1].Placement != results[1].Placement {
		t.Error("repeated PlaceBatch returned distinct placements")
	}
	if calls.Load() != 1 {
		t.Fatalf("inferences = %d after reuse, want 1", calls.Load())
	}

	// Topology-level failures fail the whole batch.
	if _, err := r.PlaceBatchContext(bg, "NoSuchPlatform", 42, opt, reqs); err == nil {
		t.Fatal("PlaceBatch on an unknown platform should fail")
	}
	// An empty batch is answered (it still resolves the topology).
	empty, err := r.PlaceBatchContext(bg, "Ivy", 42, opt, nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: (%v, %v)", empty, err)
	}
}

// TestPlaceBatchConcurrent hammers PlaceBatch from many goroutines (run
// with -race); every caller must see the same shared placements.
func TestPlaceBatchConcurrent(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(_ context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		return realInfer(bg, platform, seed, opt)
	}})
	opt := mctopalg.Options{Reps: 51}
	reqs := []PlaceRequest{
		{Policy: "CON_HWC", NThreads: 16},
		{Policy: "BALANCE_CORE", NThreads: 12},
		{Policy: "RR_HWC", NThreads: 0},
	}
	const goroutines = 16
	var wg sync.WaitGroup
	got := make([][]BatchResult, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.PlaceBatchContext(bg, "Ivy", 7, opt, reqs)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			got[g] = res
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("inferences = %d, want 1", calls.Load())
	}
	for g := 1; g < goroutines; g++ {
		for i := range reqs {
			if got[g] == nil || got[0] == nil {
				t.Fatal("missing results")
			}
			if got[g][i].Placement != got[0][i].Placement {
				t.Fatalf("goroutine %d request %d: distinct placement", g, i)
			}
		}
	}
}

// TestCachedIsTheWarmFastPath: Cached answers from the store exactly as a
// hit through get would — same entry, attributed tier and entry, one
// counted hit — and on a cold key answers nothing, computing nothing and
// counting no miss.
func TestCachedIsTheWarmFastPath(t *testing.T) {
	var calls atomic.Int64
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		calls.Add(1)
		return fakeTopo(), nil
	}})
	opt := mctopalg.Options{Reps: 51}
	key := TopoKey("Ivy", 1, opt)

	ctx, sv := ContextWithServed(bg)
	if e, ok := r.Cached(ctx, KindTopology, key); ok || e != nil {
		t.Fatalf("cold Cached = %v, %v; want nothing", e, ok)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 0 || calls.Load() != 0 || sv.Tier != "" {
		t.Fatalf("cold Cached moved counters: %+v, %d inferences, tier %q", st, calls.Load(), sv.Tier)
	}

	top, _, err := r.LookupTopologyContext(bg, "Ivy", 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	ctx, sv = ContextWithServed(bg)
	e, ok := r.Cached(ctx, KindTopology, key)
	if !ok || e.Val != any(top) || e.Kind != KindTopology || e.Key != key {
		t.Fatalf("warm Cached = %v, %v; want the cached topology's entry", e, ok)
	}
	after := r.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || calls.Load() != 1 {
		t.Fatalf("warm Cached: hits %d -> %d, misses %d -> %d, %d inferences; want one hit, no miss, no inference",
			before.Hits, after.Hits, before.Misses, after.Misses, calls.Load())
	}
	if sv.Tier != "lru" || sv.Entry != e {
		t.Fatalf("warm Cached attributed tier %q and entry %p, want lru and %p", sv.Tier, sv.Entry, e)
	}
}
