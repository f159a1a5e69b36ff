package mctop_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	mctop "repro"
)

// testOptions keeps inference fast in tests (the facade's full default of
// 201 reps is still ~10x slower than needed for a 20-context Ivy).
func fastOpts() []mctop.Option { return []mctop.Option{mctop.WithReps(51)} }

func TestInferContextAware(t *testing.T) {
	ctx := context.Background()
	top, err := mctop.Infer(ctx, "Ivy", 42, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumHWContexts() != 40 {
		t.Fatalf("Ivy has %d contexts, want 40", top.NumHWContexts())
	}

	// Unknown platforms wrap the sentinel.
	if _, err := mctop.Infer(ctx, "Nope", 42, fastOpts()...); !errors.Is(err, mctop.ErrUnknownPlatform) {
		t.Errorf("err = %v, want ErrUnknownPlatform", err)
	}

	// A pre-cancelled context aborts before measuring.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := mctop.Infer(cancelled, "Ivy", 43, fastOpts()...); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAllocPinUnpin(t *testing.T) {
	top, err := mctop.Infer(context.Background(), "Ivy", 42, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := mctop.NewAlloc(top, mctop.RRCore, mctop.WithThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumHWContexts() != 8 {
		t.Fatalf("NumHWContexts = %d, want 8", alloc.NumHWContexts())
	}
	order := alloc.Contexts()
	// Pin is deterministic and idempotent.
	for i := 0; i < 8; i++ {
		c, err := alloc.Pin(i)
		if err != nil {
			t.Fatal(err)
		}
		if c != order[i] {
			t.Fatalf("Pin(%d) = %d, want slot %d", i, c, order[i])
		}
		again, _ := alloc.Pin(i)
		if again != c {
			t.Fatalf("re-Pin(%d) = %d, want %d", i, again, c)
		}
	}
	if alloc.NumPinned() != 8 {
		t.Fatalf("NumPinned = %d, want 8", alloc.NumPinned())
	}
	if err := alloc.Unpin(3); err != nil {
		t.Fatal(err)
	}
	if alloc.NumPinned() != 7 {
		t.Fatalf("NumPinned after Unpin = %d, want 7", alloc.NumPinned())
	}
	// Out-of-range ids wrap ErrInvalidRequest.
	if _, err := alloc.Pin(8); !errors.Is(err, mctop.ErrInvalidRequest) {
		t.Errorf("Pin(8) err = %v, want ErrInvalidRequest", err)
	}
	if err := alloc.Unpin(-1); !errors.Is(err, mctop.ErrInvalidRequest) {
		t.Errorf("Unpin(-1) err = %v, want ErrInvalidRequest", err)
	}
	if !strings.Contains(alloc.Report(), "MCTOP_PLACE_RR_CORE") {
		t.Errorf("report does not name the policy:\n%s", alloc.Report())
	}
}

// TestComposedPolicyThroughLibrary is the acceptance scenario: a custom
// composed policy (RR_CORE restricted to socket 0, capped at 8) placed
// through the library — NewAlloc directly and the Registry by value.
func TestComposedPolicyThroughLibrary(t *testing.T) {
	ctx := context.Background()
	top, err := mctop.Infer(ctx, "Ivy", 42, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	pol := mctop.OnSockets(mctop.RRCore, 0).Limit(8)

	alloc, err := mctop.NewAlloc(top, pol)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumHWContexts() != 8 {
		t.Fatalf("NumHWContexts = %d, want 8", alloc.NumHWContexts())
	}
	for _, c := range alloc.Contexts() {
		if s := top.Context(c).Socket.ID; s != 0 {
			t.Fatalf("context %d on socket %d, want 0", c, s)
		}
	}

	// The registry places the same composition by value (what a linked
	// application serving placements calls) and agrees with the Alloc.
	reg := mctop.NewRegistry(16)
	pl, err := reg.PlaceWithContext(ctx, "Ivy", 42, mctop.NewOptions(fastOpts()...), pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.PolicyName() != pol.Name() {
		t.Errorf("PolicyName = %q, want %q", pl.PolicyName(), pol.Name())
	}
	got, want := pl.Contexts(), alloc.Contexts()
	if len(got) != len(want) {
		t.Fatalf("registry placement %v, alloc %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slot %d: registry %d, alloc %d", i, got[i], want[i])
		}
	}
}

func TestFunctionalOptionsHashStably(t *testing.T) {
	// The same configuration expressed as a raw struct and as functional
	// options must share one registry cache entry.
	reg := mctop.NewRegistry(16)
	ctx := context.Background()
	if _, _, err := reg.LookupTopologyContext(ctx, "Ivy", 42, mctop.Options{Reps: 51}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.LookupTopologyContext(ctx, "Ivy", 42, mctop.NewOptions(mctop.WithReps(51))); err != nil {
		t.Fatal(err)
	}
	if got := reg.Stats().Inferences; got != 1 {
		t.Fatalf("inferences = %d, want 1 (options must hash identically)", got)
	}
	// Parallelism is excluded from the key by design.
	if _, _, err := reg.LookupTopologyContext(ctx, "Ivy", 42, mctop.NewOptions(mctop.WithReps(51), mctop.WithParallelism(2))); err != nil {
		t.Fatal(err)
	}
	if got := reg.Stats().Inferences; got != 1 {
		t.Fatalf("inferences = %d, want 1 (parallelism must not change the key)", got)
	}
	// The sampled mode can select different work and is part of the key.
	if _, _, err := reg.LookupTopologyContext(ctx, "Ivy", 42, mctop.NewOptions(mctop.WithReps(51), mctop.WithSampling())); err != nil {
		t.Fatal(err)
	}
	if got := reg.Stats().Inferences; got != 2 {
		t.Fatalf("inferences = %d, want 2 (sampling is part of the key)", got)
	}
}

// TestErrorsRoundTripThroughRegistry: errors.Is works on errors that
// travelled through the registry's singleflight and caching layers.
func TestErrorsRoundTripThroughRegistry(t *testing.T) {
	reg := mctop.NewRegistry(16)
	ctx := context.Background()
	if _, _, err := reg.LookupTopologyContext(ctx, "Atari", 1, mctop.NewOptions(fastOpts()...)); !errors.Is(err, mctop.ErrUnknownPlatform) {
		t.Errorf("topology err = %v, want ErrUnknownPlatform", err)
	}
	if _, err := reg.PlaceContext(ctx, "Ivy", 42, mctop.NewOptions(fastOpts()...), "NOT_A_POLICY", 4); !errors.Is(err, mctop.ErrUnknownPolicy) {
		t.Errorf("place err = %v, want ErrUnknownPolicy", err)
	}
	if _, err := reg.PlaceContext(ctx, "SPARC", 42, mctop.NewOptions(fastOpts()...), "POWER", 4); !errors.Is(err, mctop.ErrInvalidRequest) {
		t.Errorf("power-on-SPARC err = %v, want ErrInvalidRequest", err)
	}
	// Batch items carry typed errors too.
	res, err := reg.PlaceBatchContext(ctx, "Ivy", 42, mctop.NewOptions(fastOpts()...), []mctop.PlaceRequest{
		{Policy: "RR_CORE", NThreads: 4},
		{Policy: "NOT_A_POLICY", NThreads: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err == nil || !errors.Is(res[1].Err, mctop.ErrUnknownPolicy) {
		t.Errorf("batch errors: %v / %v", res[0].Err, res[1].Err)
	}
}

// TestWithSpoolDirWarmStart: the facade option wires the tiered store the
// way mctopd's -spool-dir does — a second registry over the same dir
// serves spooled entries with zero inferences, and the LRU tier honors
// NewRegistry's entry bound.
func TestWithSpoolDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	opt := mctop.NewOptions(fastOpts()...)

	r1 := mctop.NewRegistry(64, mctop.WithSpoolDir(dir))
	top1, _, err := r1.LookupTopologyContext(context.Background(), "Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Inferences != 1 {
		t.Fatalf("inferring registry ran %d inferences", st.Inferences)
	}

	r2 := mctop.NewRegistry(64, mctop.WithSpoolDir(dir))
	defer r2.Close()
	top2, _, err := r2.LookupTopologyContext(context.Background(), "Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Inferences != 0 {
		t.Fatalf("warm registry ran %d inferences, want 0", st.Inferences)
	}
	if top2.Name() != top1.Name() || top2.NumHWContexts() != top1.NumHWContexts() {
		t.Fatal("warm topology differs")
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "lru" || st.Tiers[1].Tier != "spool" {
		t.Fatalf("tiers = %+v, want lru over spool", st.Tiers)
	}
}

// TestRegistryTierOrder: the registry's LRU heads its one tier chain and
// WithUpstream's remote tier is last, whatever the option order.
func TestRegistryTierOrder(t *testing.T) {
	// Never fetched from: the remote tier dials its origin on a miss only.
	reg := mctop.NewRegistry(8, mctop.WithUpstream("http://127.0.0.1:1"), mctop.WithSpoolDir(t.TempDir()))
	var got []string
	for _, st := range reg.Stats().Tiers {
		got = append(got, st.Tier)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"lru", "spool", "remote"}; !slices.Equal(got, want) {
		t.Errorf("tiers %v, want %v", got, want)
	}
}

// TestAllocCycleAllocs pins what a linked application pays per placement:
// NewAlloc, pinning every thread and unpinning them all is three
// allocations on Westmere at 64 threads (RR_CORE, the bench's alloc cycle)
// — the Placement, whose slots are the topology's memoized RR_CORE order,
// the Alloc (which holds the options the PlaceOptions are applied to, and
// reads the placement's order in place) and its pin flags — and pinning
// and unpinning allocate nothing. The order is built once, outside the
// measurement.
func TestAllocCycleAllocs(t *testing.T) {
	top, err := mctop.Load("internal/topo/testdata/westmere.mctop")
	if err != nil {
		t.Fatal(err)
	}
	// Build the topology's index and its RR_CORE order outside the
	// measurement.
	top.GetLatency(0, 1)
	threads := mctop.WithThreads(64)
	alloc, err := mctop.NewAlloc(top, mctop.RRCore, threads)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		alloc, err = mctop.NewAlloc(top, mctop.RRCore, threads)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < alloc.NumHWContexts(); i++ {
			alloc.Pin(i)
		}
		for i := 0; i < alloc.NumHWContexts(); i++ {
			alloc.Unpin(i)
		}
	}); got != 3 {
		t.Errorf("NewAlloc + pin all + unpin all allocates %v, want 3", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		alloc.Pin(3)
		alloc.NumPinned()
		alloc.Unpin(3)
	}); got != 0 {
		t.Errorf("Pin + NumPinned + Unpin allocates %v, want 0", got)
	}
}

// TestAllocConcurrentPins drives Pin, Unpin and NumPinned from several
// goroutines at once (run it with -race): each goroutine owns a disjoint
// set of threads, every Pin answers its slot of the order, NumPinned never
// leaves [0, NumHWContexts], and once all are done exactly the threads
// left pinned count.
func TestAllocConcurrentPins(t *testing.T) {
	top, err := mctop.Load("internal/topo/testdata/ivy.mctop")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := mctop.NewAlloc(top, mctop.ConHWC)
	if err != nil {
		t.Fatal(err)
	}
	order := alloc.Contexts()
	n := alloc.NumHWContexts()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := w; i < n; i += workers {
					c, err := alloc.Pin(i)
					if err != nil || c != order[i] {
						t.Errorf("Pin(%d) = %d, %v; want %d", i, c, err, order[i])
						return
					}
					if k := alloc.NumPinned(); k < 0 || k > n {
						t.Errorf("NumPinned = %d outside [0, %d]", k, n)
						return
					}
					// The last round leaves the even threads pinned.
					if round < 199 || i%2 == 1 {
						if err := alloc.Unpin(i); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := alloc.NumPinned(); got != (n+1)/2 {
		t.Errorf("NumPinned = %d after the workers, want %d", got, (n+1)/2)
	}
}
