package registry

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mctopalg"
	"repro/internal/topo"
)

// TestServedRecordsTheAnsweringEntry: on every path a lookup can take —
// computed, coalesced onto another caller's computation, store hit, and a
// derived kind computed over a nested topology lookup — the request's
// Served record names the entry the store holds for the requested key, and
// a batch carries each item's entry.
func TestServedRecordsTheAnsweringEntry(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	r := New(Options{InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
		once.Do(func() { close(entered) })
		<-release
		return fakeTopo(), nil
	}})
	opt := mctopalg.Options{Reps: 51}
	key := TopoKey("Ivy", 1, opt)
	stored := func(kind Kind, key string) *Entry {
		t.Helper()
		e, ok := r.Store().Get(kind, key)
		if !ok {
			t.Fatalf("no entry under %q", key)
		}
		return e
	}
	lookup := func() *Served {
		ctx, sv := ContextWithServed(bg)
		if _, _, err := r.LookupTopologyContext(ctx, "Ivy", 1, opt); err != nil {
			t.Error(err)
		}
		return sv
	}

	var owner, waiter *Served
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); owner = lookup() }()
	<-entered
	go func() { defer wg.Done(); waiter = lookup() }()
	close(release)
	wg.Wait()
	e := stored(KindTopology, key)
	if owner.Tier != "computed" || owner.Entry != e {
		t.Fatalf("owner: tier %q entry %p, want computed and the stored %p", owner.Tier, owner.Entry, e)
	}
	// The waiter either joined the computation or arrived after it landed.
	if (waiter.Tier != "coalesced" && waiter.Tier != "lru") || waiter.Entry != e {
		t.Fatalf("waiter: tier %q entry %p, want coalesced or lru and %p", waiter.Tier, waiter.Entry, e)
	}
	if hit := lookup(); hit.Tier != "lru" || hit.Entry != e {
		t.Fatalf("hit: tier %q entry %p, want lru and %p", hit.Tier, hit.Entry, e)
	}
	if e.Kind != KindTopology || e.Key != key || e.Val != any(fakeTopo()) {
		t.Fatalf("entry %+v, want the topology under %q", e, key)
	}

	ctx, sv := ContextWithServed(bg)
	pl, err := r.PlaceContext(ctx, "Ivy", 1, opt, "RR_CORE", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Tier != "computed" || sv.Entry == nil || sv.Entry.Val != any(pl) || sv.Entry != stored(KindPlacement, sv.Entry.Key) {
		t.Fatalf("computed placement: tier %q entry %+v, want its own stored entry", sv.Tier, sv.Entry)
	}

	res, err := r.PlaceBatchContext(bg, "Ivy", 1, opt, []PlaceRequest{{"RR_CORE", 4}, {"NO_SUCH_POLICY", 1}, {"CON_HWC", 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range res {
		if br.Err != nil {
			if i != 1 || br.Entry != nil {
				t.Fatalf("item %d: %v with entry %p", i, br.Err, br.Entry)
			}
			continue
		}
		if br.Entry == nil || br.Entry.Val != any(br.Placement) || br.Entry != stored(KindPlacement, br.Entry.Key) {
			t.Fatalf("item %d: entry %+v, want the stored entry of its placement", i, br.Entry)
		}
	}
	if res[0].Entry != sv.Entry {
		t.Fatal("the batch answered RR_CORE/4 with another entry than the single request")
	}
}

// TestEntryFormRendersOnce: concurrent first uses of a form all get the
// first rendering stored, and later uses never render; SetRendered
// replaces a form outright.
func TestEntryFormRendersOnce(t *testing.T) {
	e := NewEntry(KindTopology, "k", nil)
	if e.Rendered(FormJSON) != nil {
		t.Fatal("a fresh entry has a rendered form")
	}
	var renders atomic.Int64
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := e.Form(FormJSON, func() ([]byte, error) {
				return []byte{byte(renders.Add(1))}, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if &b[0] != &got[0][0] {
			t.Fatalf("caller %d got its own rendering %v, caller 0 %v", i, b, got[0])
		}
	}
	before := renders.Load()
	if b, _ := e.Form(FormJSON, func() ([]byte, error) { return nil, nil }); &b[0] != &got[0][0] || renders.Load() != before {
		t.Fatal("a rendered form was rendered again")
	}
	e.SetRendered(FormJSON, []byte("x"))
	if string(e.Rendered(FormJSON)) != "x" || e.Rendered(FormItem) != nil {
		t.Fatal("SetRendered did not replace exactly its own form")
	}
}
