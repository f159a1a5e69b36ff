package remote

// Failure-mode coverage for the fleet tier. The Store contract is that the
// tier never fails — every broken-origin scenario (down, slow, corrupt
// bodies, unknown keys) must degrade to a miss, which at the registry
// level degrades to a local re-inference. The singleflight test runs under
// -race in CI and asserts a concurrent wave of registry lookups for one key
// fetches each entry it needs from the origin exactly once.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/topo"
)

// testTopo infers a small enriched Ivy topology once and shares it.
var testTopo = sync.OnceValue(func() *topo.Topology {
	res, err := registry.Infer(context.Background(), "Ivy", 1, mctopalg.Options{Reps: 51})
	if err != nil {
		panic(err)
	}
	return res.Topology
})

const testKey = "topo|Ivy|1|r51"

// encodeBody renders testTopo as the origin would serve it under key.
func encodeBody(t *testing.T, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := spool.Encode(&buf, registry.NewEntry(registry.KindTopology, key, testTopo())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newRemote builds a tier over base with fast test timeouts. Retries are
// off (the fetch-count assertions below want one dial per miss) and the
// retry sleep is free — the retry tests opt back in explicitly.
func newRemote(t *testing.T, base string, opts ...Option) *Remote {
	t.Helper()
	rm := New(base, append([]Option{
		WithTimeout(2 * time.Second),
		WithNegTTL(100 * time.Millisecond),
		WithRetries(0, 0),
		WithLogf(t.Logf),
	}, opts...)...)
	rm.sleep = func(time.Duration) {}
	return rm
}

// get is Lookup outside any request: the value of the entry it returns.
func get(rm *Remote, kind registry.Kind, key string) (any, bool) {
	e, _, ok := rm.Lookup(context.Background(), kind, key)
	if !ok {
		return nil, false
	}
	return e.Val, true
}

// edgeRegistry is a registry of 16 entries over tiers whose local
// inference serves testTopo and counts how often it ran — the "degrade to
// local re-inference" assertion of every failure-mode test.
func edgeRegistry(tiers ...registry.Store) (*registry.Registry, *atomic.Int64) {
	var inferences atomic.Int64
	reg := registry.New(registry.Options{
		MaxEntries: 16,
		Tiers:      tiers,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			inferences.Add(1)
			return testTopo(), nil
		},
	})
	return reg, &inferences
}

func TestFetchTopologyHit(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if got := r.URL.Query().Get("key"); got != testKey {
			t.Errorf("origin asked for key %q, want %q", got, testKey)
		}
		w.Write(encodeBody(t, testKey))
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL)
	v, ok := get(rm, registry.KindTopology, testKey)
	if !ok {
		t.Fatal("expected a hit from a healthy origin")
	}
	got := v.(*topo.Topology)
	var a, b bytes.Buffer
	sa, sb := got.Spec(), testTopo().Spec()
	topo.Encode(&a, &sa)
	topo.Encode(&b, &sb)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fetched topology does not re-encode byte-identically")
	}
	st := rm.Stats()[0]
	if st.Tier != "remote" || st.Hits != 1 || st.Misses != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want remote tier with 1 hit", st)
	}
	if requests.Load() != 1 {
		t.Fatalf("origin saw %d requests, want 1", requests.Load())
	}
}

func TestOriginDownDegradesToLocalInference(t *testing.T) {
	// A server started and immediately closed yields a port that refuses
	// connections — the down-origin case.
	ts := httptest.NewServer(http.NewServeMux())
	ts.Close()

	rm := newRemote(t, ts.URL)
	reg, inferences := edgeRegistry(rm)
	top, _, err := reg.LookupTopologyContext(context.Background(), "Ivy", 1, mctopalg.Options{Reps: 51})
	if err != nil {
		t.Fatalf("a down origin must not fail a lookup: %v", err)
	}
	if top == nil || inferences.Load() != 1 {
		t.Fatalf("want exactly one local inference, got %d", inferences.Load())
	}
	st := rm.Stats()[0]
	if st.Errors == 0 || st.Hits != 0 {
		t.Fatalf("remote stats = %+v, want errors and no hits", st)
	}
}

func TestOriginDownBackoffSkipsDials(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux())
	ts.Close()

	rm := newRemote(t, ts.URL, WithNegTTL(time.Minute))
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("down origin produced a hit")
	}
	dials := rm.Fetches()
	if dials != 1 {
		t.Fatalf("first miss issued %d fetches, want 1", dials)
	}
	// Inside the backoff window, further Gets — any key — must not dial.
	for i := 0; i < 10; i++ {
		if _, ok := get(rm, registry.KindTopology, testKey); ok {
			t.Fatal("hit during backoff")
		}
		if _, ok := get(rm, registry.KindTopology, "topo|Westmere|1|r51"); ok {
			t.Fatal("hit during backoff")
		}
	}
	if got := rm.Fetches(); got != dials {
		t.Fatalf("backoff window still dialed the origin: %d fetches, want %d", got, dials)
	}
}

func TestBackoffExpiresAndOriginRecovers(t *testing.T) {
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		w.Write(encodeBody(t, testKey))
	}))
	defer ts.Close()

	now := time.Now()
	var clock atomic.Pointer[time.Time]
	clock.Store(&now)
	rm := newRemote(t, ts.URL, WithNegTTL(time.Second),
		WithClock(func() time.Time { return *clock.Load() }))

	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("5xx produced a hit")
	}
	healthy.Store(true)
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("expected the backoff window to mask the recovery")
	}
	later := now.Add(5 * time.Second)
	clock.Store(&later)
	if _, ok := get(rm, registry.KindTopology, testKey); !ok {
		t.Fatal("expected a hit once the backoff expired")
	}
}

func TestOriginSlowTimesOutAndDegrades(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // an origin stuck on a cold inference
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL, WithTimeout(50*time.Millisecond))
	reg, inferences := edgeRegistry(rm)
	start := time.Now()
	if _, _, err := reg.LookupTopologyContext(context.Background(), "Ivy", 1, mctopalg.Options{Reps: 51}); err != nil {
		t.Fatalf("a slow origin must not fail a lookup: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lookup blocked %v behind a slow origin", elapsed)
	}
	if inferences.Load() != 1 {
		t.Fatalf("want one local inference, got %d", inferences.Load())
	}
}

func TestCorruptBodyNegativeCachesKeyOnly(t *testing.T) {
	// The key a registry lookup of ("Ivy", 1, Reps:51) actually fetches.
	corruptKey := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.URL.Query().Get("key") == corruptKey {
			w.Write([]byte("#key " + corruptKey + "\nthis is not a description file\n"))
			return
		}
		w.Write(encodeBody(t, r.URL.Query().Get("key")))
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL, WithNegTTL(time.Minute))
	reg, inferences := edgeRegistry(rm)
	if _, _, err := reg.LookupTopologyContext(context.Background(), "Ivy", 1, mctopalg.Options{Reps: 51}); err != nil {
		t.Fatalf("a corrupt body must not fail a lookup: %v", err)
	}
	if inferences.Load() != 1 {
		t.Fatalf("want one local inference, got %d", inferences.Load())
	}
	// The corrupt key is negative-cached: no refetch within the TTL.
	after := requests.Load()
	if _, ok := get(rm, registry.KindTopology, corruptKey); ok || requests.Load() != after {
		t.Fatal("negative-cached key was re-fetched or served")
	}
	// ...but the origin is not marked down: other keys still fetch.
	if _, ok := get(rm, registry.KindTopology, "topo|Other|1|r51"); !ok {
		t.Fatal("healthy key missed after an unrelated corrupt body")
	}
}

func TestTornBodyDegrades(t *testing.T) {
	body := encodeBody(t, testKey)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body[:len(body)/2]) // a torn transfer
	}))
	defer ts.Close()
	rm := newRemote(t, ts.URL)
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("torn body served as a hit")
	}
	if st := rm.Stats()[0]; st.Errors != 1 {
		t.Fatalf("stats = %+v, want one error", st)
	}
}

func TestMislabeledBodyRejected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(encodeBody(t, "topo|SomethingElse|7|r51"))
	}))
	defer ts.Close()
	rm := newRemote(t, ts.URL)
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("a body labeled with another key must not land under this key")
	}
}

func Test404NegativeCachesKey(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	rm := newRemote(t, ts.URL, WithNegTTL(time.Minute))
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("404 served as a hit")
	}
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("404 served as a hit")
	}
	if requests.Load() != 1 {
		t.Fatalf("negative cache did not hold: %d requests, want 1", requests.Load())
	}
}

// TestConcurrentFetchesCollapse is the -race singleflight test of an edge:
// the registry is the one place concurrent misses coalesce, so a wave of
// concurrent lookups of one key through a registry over the remote tier
// must fetch each entry it needs from the origin exactly once — one
// topology, or one sidecar and its topology — and every caller shares the
// fetched value.
func TestConcurrentFetchesCollapse(t *testing.T) {
	opt := mctopalg.Options{Reps: 51}
	tk := registry.TopoKey("Ivy", 1, opt)
	pl, err := place.NewFrom(testTopo(), place.RRCore, place.Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	pk := "place|" + tk + "|" + pl.PolicyName() + "|8"
	var pbuf bytes.Buffer
	if err := spool.Encode(&pbuf, registry.NewEntry(registry.KindPlacement, pk, pl)); err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{tk: encodeBody(t, tk), pk: pbuf.Bytes()}

	for _, tc := range []struct {
		name    string
		lookup  func(*registry.Registry) (any, error)
		fetched []string // every key the wave must fetch, once each
	}{
		{"topology", func(reg *registry.Registry) (any, error) {
			top, _, err := reg.LookupTopologyContext(context.Background(), "Ivy", 1, opt)
			return top, err
		}, []string{tk}},
		{"placement", func(reg *registry.Registry) (any, error) {
			return reg.PlaceContext(context.Background(), "Ivy", 1, opt, "RR_CORE", 8)
		}, []string{pk, tk}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			requests := map[string]int{}
			gate := make(chan struct{})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				key := r.URL.Query().Get("key")
				mu.Lock()
				requests[key]++
				mu.Unlock()
				<-gate // hold the fetch open until the whole wave is waiting
				if b, ok := bodies[key]; ok {
					w.Write(b)
					return
				}
				http.NotFound(w, r)
			}))
			defer ts.Close()

			rm := newRemote(t, ts.URL)
			reg, inferences := edgeRegistry(rm)
			const waiters = 32
			var wg sync.WaitGroup
			results := make([]any, waiters)
			for i := 0; i < waiters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, err := tc.lookup(reg)
					if err != nil {
						t.Errorf("waiter %d: %v", i, err)
						return
					}
					results[i] = v
				}(i)
			}
			// Release the fetch once the rest of the wave waits on its owner:
			// each waiter counts a miss as it starts waiting, the owner only
			// once its walk returns.
			for deadline := time.Now().Add(5 * time.Second); reg.Stats().Misses < waiters-1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					close(gate)
					wg.Wait()
					t.Fatalf("only %d of %d lookups wait on the owner's fetch", reg.Stats().Misses, waiters-1)
				}
			}
			close(gate)
			wg.Wait()

			for _, key := range tc.fetched {
				if requests[key] != 1 {
					t.Errorf("%d concurrent lookups fetched %q %d times, want 1", waiters, key, requests[key])
				}
			}
			if len(requests) != len(tc.fetched) {
				t.Errorf("origin saw keys %v, want exactly %v", requests, tc.fetched)
			}
			for i, v := range results {
				if v == nil || v != results[0] {
					t.Fatalf("waiter %d got %p, waiter 0 %p: want one shared value", i, v, results[0])
				}
			}
			if st := rm.Stats()[0]; st.Hits != int64(len(tc.fetched)) || st.Misses != 0 {
				t.Fatalf("remote tier: %d hits, %d misses; want %d, 0", st.Hits, st.Misses, len(tc.fetched))
			}
			// The owner's walk answered (a hit); every other caller waited on it.
			st := reg.Stats()
			if n := inferences.Load(); n != 0 || st.Placements != 0 || st.Hits != 1 || st.Misses != waiters-1 {
				t.Fatalf("edge: %d inferences, %d placements, %d hits, %d misses; want 0, 0, 1, %d",
					n, st.Placements, st.Hits, st.Misses, waiters-1)
			}
		})
	}
}

func TestPlacementFetchReconstructsViaTopology(t *testing.T) {
	top := testTopo()
	pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	placeKey := "place|" + testKey + "|MCTOP_PLACE_RR_CORE|8"
	var sidecars sync.Map // placement key -> *place.Placement
	sidecars.Store(placeKey, pl)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		key := r.URL.Query().Get("key")
		if key == testKey {
			w.Write(encodeBody(t, testKey))
			return
		}
		if v, ok := sidecars.Load(key); ok {
			var buf bytes.Buffer
			if err := spool.Encode(&buf, registry.NewEntry(registry.KindPlacement, key, v.(*place.Placement))); err != nil {
				t.Error(err)
			}
			w.Write(buf.Bytes())
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL)
	v, ok := get(rm, registry.KindPlacement, placeKey)
	if !ok {
		t.Fatal("placement fetch missed")
	}
	got := v.(*place.Placement).Contexts()
	want := pl.Contexts()
	if len(got) != len(want) {
		t.Fatalf("reconstructed %d contexts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("context %d = %d, want %d", i, got[i], want[i])
		}
	}
	// The sidecar fetch pulled its topology too: exactly 2 requests.
	if requests.Load() != 2 {
		t.Fatalf("placement fetch issued %d requests, want 2 (sidecar + topology)", requests.Load())
	}
	// A second placement referencing the same topology rides the
	// topology memo: one more request, not two. The memo is weak, so it
	// holds the topology only while something does: the first placement
	// is kept reachable until the second fetch is counted.
	placeKey16 := "place|" + testKey + "|MCTOP_PLACE_RR_CORE|16"
	pl16, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: 16})
	if err != nil {
		t.Fatal(err)
	}
	sidecars.Store(placeKey16, pl16)
	if _, ok := get(rm, registry.KindPlacement, placeKey16); !ok {
		t.Fatal("second placement fetch missed")
	}
	if requests.Load() != 3 {
		t.Fatalf("second placement issued %d total requests, want 3 (topology memoized)", requests.Load())
	}
	runtime.KeepAlive(v)
}

// TestRetryRidesOutOriginBlip: one origin-level failure followed by a
// healthy answer must hit on the first Get — the retry absorbs the blip
// instead of opening the down window.
func TestRetryRidesOutOriginBlip(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			http.Error(w, "blip", http.StatusInternalServerError)
			return
		}
		w.Write(encodeBody(t, testKey))
	}))
	defer ts.Close()

	var slept []time.Duration
	rm := newRemote(t, ts.URL, WithRetries(1, 10*time.Millisecond))
	rm.sleep = func(d time.Duration) { slept = append(slept, d) }

	if _, ok := get(rm, registry.KindTopology, testKey); !ok {
		t.Fatal("retry did not ride out a single 5xx")
	}
	if requests.Load() != 2 {
		t.Fatalf("origin saw %d requests, want 2 (failed + retried)", requests.Load())
	}
	if bs := rm.Backoff(); !bs.DownUntil.IsZero() || bs.ConsecutiveFails != 0 {
		t.Fatalf("successful retry left backoff state %+v", bs)
	}
	// The jittered delay stays inside [base/2, 3*base/2) — well under one
	// origin-down window.
	if len(slept) != 1 || slept[0] < 5*time.Millisecond || slept[0] >= 15*time.Millisecond {
		t.Fatalf("retry slept %v, want one jittered delay near 10ms", slept)
	}
}

// TestRetriesBoundedThenBackoff: a hard-down origin is retried exactly
// the configured number of times, then the miss opens the backoff window
// as before — retries delay the window, they do not replace it.
func TestRetriesBoundedThenBackoff(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux())
	ts.Close()

	rm := newRemote(t, ts.URL, WithNegTTL(time.Minute), WithRetries(2, time.Millisecond))
	rm.sleep = func(time.Duration) {}
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("down origin produced a hit")
	}
	if got := rm.Fetches(); got != 3 {
		t.Fatalf("down origin saw %d fetch attempts, want 3 (1 + 2 retries)", got)
	}
	if bs := rm.Backoff(); bs.DownUntil.IsZero() || bs.ConsecutiveFails == 0 {
		t.Fatalf("exhausted retries did not open the backoff window: %+v", bs)
	}
	// Inside the window nothing dials — retries included.
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("hit during backoff")
	}
	if got := rm.Fetches(); got != 3 {
		t.Fatalf("backoff window still dialed: %d fetches", got)
	}
}

// TestKeyFaultsAreNotRetried: a 404 is the origin's answer, not a fault —
// retrying it would only double the load on a healthy origin.
func TestKeyFaultsAreNotRetried(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL, WithRetries(3, time.Millisecond))
	rm.sleep = func(time.Duration) {}
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("404 produced a hit")
	}
	if requests.Load() != 1 {
		t.Fatalf("origin saw %d requests for a 404, want 1 (no retries)", requests.Load())
	}
}

// TestInjectedClockDrivesWindowsWithoutSleeping: the WithClock seam walks
// negative-cache expiry — no real time passes anywhere in the test.
func TestInjectedClockDrivesWindowsWithoutSleeping(t *testing.T) {
	var serve atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !serve.Load() {
			http.NotFound(w, r)
			return
		}
		w.Write(encodeBody(t, testKey))
	}))
	defer ts.Close()

	now := time.Now()
	var clock atomic.Pointer[time.Time]
	clock.Store(&now)
	rm := newRemote(t, ts.URL, WithNegTTL(time.Hour),
		WithClock(func() time.Time { return *clock.Load() }))

	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("404 produced a hit")
	}
	serve.Store(true)
	if _, ok := get(rm, registry.KindTopology, testKey); ok {
		t.Fatal("negative cache did not mask the recovery")
	}
	if dials := rm.Fetches(); dials != 1 {
		t.Fatalf("negative-cached key dialed anyway (%d fetches)", dials)
	}
	later := now.Add(2 * time.Hour)
	clock.Store(&later)
	if _, ok := get(rm, registry.KindTopology, testKey); !ok {
		t.Fatal("expired negative-cache entry did not refetch")
	}
}
