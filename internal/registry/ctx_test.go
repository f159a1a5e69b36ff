package registry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/topo"
)

// blockingRegistry builds a registry whose inference blocks until its
// context is cancelled or the returned release function is called.
func blockingRegistry(t *testing.T, started chan<- struct{}) (*Registry, func()) {
	t.Helper()
	release := make(chan struct{})
	r := New(Options{
		MaxEntries: 16,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			if started != nil {
				started <- struct{}{}
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return fakeTopo(), nil
			}
		},
	})
	var once sync.Once
	return r, func() { once.Do(func() { close(release) }) }
}

// TestCancelMidInference is the acceptance scenario: cancelling a context
// mid-inference returns context.Canceled, and the singleflight slot is not
// leaked — the next lookup runs a fresh inference and succeeds.
func TestCancelMidInference(t *testing.T) {
	started := make(chan struct{}, 8)
	r, release := blockingRegistry(t, started)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(ctx, "P", 1, mctopalg.Options{})
		errc <- err
	}()
	<-started // the inference is running
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled inference returned %v, want context.Canceled", err)
	}

	// The slot must be free: a fresh caller triggers a new inference (we
	// see a second started signal) and completes once released.
	done := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(context.Background(), "P", 1, mctopalg.Options{})
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no fresh inference started: singleflight slot leaked")
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("post-cancel lookup: %v", err)
	}
	if got := r.Stats().Inferences; got != 2 {
		t.Fatalf("inferences = %d, want 2 (one cancelled, one fresh)", got)
	}
}

// TestWaiterCancelLeavesOwnerRunning: a waiter that joined another
// caller's inference stops waiting with its own ctx.Err(); the owner
// finishes and populates the cache for everyone after.
func TestWaiterCancelLeavesOwnerRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	r, release := blockingRegistry(t, started)

	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(context.Background(), "P", 1, mctopalg.Options{})
		ownerErr <- err
	}()
	<-started

	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(waiterCtx, "P", 1, mctopalg.Options{})
		waiterErr <- err
	}()
	// Give the waiter a moment to join the in-flight call, then abandon it.
	time.Sleep(10 * time.Millisecond)
	waiterCancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want context.Canceled", err)
	}

	release()
	if err := <-ownerErr; err != nil {
		t.Fatalf("owner returned %v, want success", err)
	}
	// The owner's result is cached: a new lookup is a hit, no inference.
	if _, hit, err := r.LookupTopologyContext(context.Background(), "P", 1, mctopalg.Options{}); err != nil || !hit {
		t.Fatalf("post-release lookup: hit=%v err=%v, want cache hit", hit, err)
	}
	if got := r.Stats().Inferences; got != 1 {
		t.Fatalf("inferences = %d, want 1", got)
	}
}

// TestWaiterSurvivesOwnerCancel: when the computing owner's context is
// cancelled, a waiter with a healthy context does not inherit
// context.Canceled — it retries, becomes the next owner, and succeeds.
func TestWaiterSurvivesOwnerCancel(t *testing.T) {
	started := make(chan struct{}, 4)
	r, release := blockingRegistry(t, started)

	ownerCtx, ownerCancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(ownerCtx, "P", 1, mctopalg.Options{})
		ownerErr <- err
	}()
	<-started // owner's inference is running

	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(context.Background(), "P", 1, mctopalg.Options{})
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the wave
	ownerCancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner returned %v, want context.Canceled", err)
	}
	// The waiter must be promoted: a second inference starts.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter was not promoted to owner after cancellation")
	}
	release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("healthy waiter inherited the owner's fate: %v", err)
	}
	if got := r.Stats().Inferences; got != 2 {
		t.Fatalf("inferences = %d, want 2 (cancelled owner + promoted waiter)", got)
	}
}

// TestCancelRace hammers cancellation from many goroutines to give the
// race detector a surface: concurrent waiters, concurrent cancels, and a
// completing owner.
func TestCancelRace(t *testing.T) {
	r, release := blockingRegistry(t, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%2 == 0 {
				go func() {
					time.Sleep(time.Duration(i) * time.Millisecond)
					cancel()
				}()
			}
			_, _, err := r.LookupTopologyContext(ctx, "P", 1, mctopalg.Options{})
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	release()
	wg.Wait()
}

// TestSemaphoreAcquireHonorsCancel: a caller queued behind the compute
// bound gives up when its context fires instead of waiting for a slot.
func TestSemaphoreAcquireHonorsCancel(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	r := New(Options{
		MaxEntries:            16,
		MaxConcurrentComputes: 1,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return fakeTopo(), nil
			}
		},
	})
	// Occupy the only compute slot with key A.
	go r.LookupTopologyContext(context.Background(), "A", 1, mctopalg.Options{})
	<-started

	// A second key must queue on the semaphore; cancel it there.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := r.LookupTopologyContext(ctx, "B", 1, mctopalg.Options{})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the acquire
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued caller returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued caller did not honor cancellation")
	}
	close(release)
}

// TestPlaceBatchContextCancelled: a cancelled batch reports the context
// error rather than partial results.
func TestPlaceBatchContextCancelled(t *testing.T) {
	r := New(Options{
		MaxEntries: 16,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			return fakeTopo(), nil
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.PlaceBatchContext(ctx, "P", 1, mctopalg.Options{}, []PlaceRequest{{Policy: "RR_CORE"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
