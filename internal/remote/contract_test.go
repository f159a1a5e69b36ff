package remote

// The registry.Store contract, checked the same way against every tier
// that implements it — the in-memory LRU, the spool over a temp directory,
// this package's remote tier over an httptest origin — and against a
// registry's chain of all three. It lives here because this package
// already imports the other two.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mctopalg"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/topo"
)

// contractOrigin serves testTopo under testKey and 404s everything else.
func contractOrigin(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("key") != testKey {
			http.Error(w, "no such entry", http.StatusNotFound)
			return
		}
		w.Write(encodeBody(t, testKey))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func contractSpool(t *testing.T) *spool.Spool {
	sp, err := spool.New(t.TempDir(), spool.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// contractChain is the tier chain of a registry that never infers: its
// LRU of 8 entries, then tiers.
func contractChain(tiers ...registry.Store) *registry.Tiered {
	return registry.New(registry.Options{
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			return nil, errors.New("a store test never infers")
		},
		MaxEntries: 8,
		Tiers:      tiers,
	}).Store()
}

// chainStore drives a registry's chain through the Store script: its Put
// is the chain's context-free write of the entry.
type chainStore struct{ *registry.Tiered }

func (c chainStore) Put(e *registry.Entry) {
	if err := c.Tiered.Put(e.Kind, e.Key, e); err != nil {
		panic(err)
	}
}

func TestStoreContract(t *testing.T) {
	tiers := []struct {
		name    string
		hitTier string // who serves testKey after it was Put and flushed
		build   func(t *testing.T) registry.Store
	}{
		{"lru", "lru", func(*testing.T) registry.Store { return registry.NewLRU(8) }},
		{"spool", "spool", func(t *testing.T) registry.Store { return contractSpool(t) }},
		// Put is a no-op on the pull-only fleet tier; the origin already
		// holds the entry, so the same script applies.
		{"remote", "remote", func(t *testing.T) registry.Store { return newRemote(t, contractOrigin(t).URL) }},
		{"tiered", "lru", func(t *testing.T) registry.Store {
			return chainStore{contractChain(contractSpool(t), newRemote(t, contractOrigin(t).URL))}
		}},
	}
	ctx := context.Background()
	const missing = "topo|Nowhere|1|r51"
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)

			// A miss is (nil, "", false), never an error or a tier name.
			if v, tier, ok := s.Lookup(ctx, registry.KindTopology, missing); v != nil || tier != "" || ok {
				t.Fatalf("miss = (%v, %q, %v), want (nil, \"\", false)", v, tier, ok)
			}

			s.Put(registry.NewEntry(registry.KindTopology, testKey, testTopo()))
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			e, tier, ok := s.Lookup(ctx, registry.KindTopology, testKey)
			if !ok || tier != tc.hitTier {
				t.Fatalf("hit = (ok %v, tier %q), want tier %q", ok, tier, tc.hitTier)
			}
			if e == nil || e.Kind != registry.KindTopology || e.Key != testKey {
				t.Fatalf("hit = %#v, want the topology's entry under its key", e)
			}
			if _, ok := e.Val.(*topo.Topology); !ok {
				t.Fatalf("hit holds a %T, want the topology", e.Val)
			}
			var got, want bytes.Buffer
			if err := spool.Encode(&got, e); err != nil {
				t.Fatal(err)
			}
			if err := spool.Encode(&want, registry.NewEntry(registry.KindTopology, testKey, testTopo())); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("the value looked up does not encode like the value put")
			}

			// One shared counter block per tier: every tier reports all
			// kinds, totals are the sums over kinds, and across the chain
			// the script above is exactly one topology hit.
			var hits int64
			for _, st := range s.Stats() {
				if len(st.Kinds) != int(registry.NumKinds) {
					t.Errorf("%s: %d kinds in the breakdown, want %d", st.Tier, len(st.Kinds), registry.NumKinds)
				}
				var h, m, e int64
				for _, ks := range st.Kinds {
					h, m, e = h+ks.Hits, m+ks.Misses, e+ks.Evictions
				}
				if st.Hits != h || st.Misses != m || st.Evictions != e {
					t.Errorf("%s: totals %d/%d/%d are not the per-kind sums %d/%d/%d",
						st.Tier, st.Hits, st.Misses, st.Evictions, h, m, e)
				}
				if st.Misses == 0 {
					t.Errorf("%s: no miss counted", st.Tier)
				}
				hits += st.Kinds["topology"].Hits
			}
			if hits != 1 {
				t.Errorf("%d topology hits across the chain, want 1", hits)
			}

			// Flush and Close are idempotent, and a late Put is dropped or
			// absorbed — never a panic.
			for i := 0; i < 2; i++ {
				if err := s.Flush(); err != nil {
					t.Fatalf("Flush #%d: %v", i+1, err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := s.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			s.Put(registry.NewEntry(registry.KindTopology, testKey, testTopo()))
			if err := s.Flush(); err != nil {
				t.Fatalf("Flush after Close: %v", err)
			}
			if _, _, ok := s.Lookup(ctx, registry.KindTopology, testKey); !ok {
				t.Fatal("a closed tier stopped serving reads")
			}
		})
	}
}

// TestTieredPromotesIntoUpperTiers: an entry only the origin holds is
// attributed to the remote tier once, lands in the LRU and the spool on the
// way up, and is then served from memory — the very entry the remote tier
// returned, whose interchange file is the one the spool wrote.
func TestTieredPromotesIntoUpperTiers(t *testing.T) {
	sp := contractSpool(t)
	chain := contractChain(sp, newRemote(t, contractOrigin(t).URL))
	defer chain.Close()
	ctx := context.Background()
	fetched, tier, ok := chain.Lookup(ctx, registry.KindTopology, testKey)
	if !ok || tier != "remote" {
		t.Fatalf("first lookup: ok %v, tier %q; want the remote tier", ok, tier)
	}
	if v, tier, ok := chain.Lookup(ctx, registry.KindTopology, testKey); !ok || tier != "lru" || v != fetched {
		t.Fatalf("second lookup: ok %v, tier %q, same entry %v; want the lru tier's copy of the fetched entry", ok, tier, v == fetched)
	}
	if err := chain.Flush(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(sp.Dir(), spoolFileOf(t, sp.Dir())))
	if err != nil {
		t.Fatal(err)
	}
	if got := fetched.Rendered(registry.FormFile); !bytes.Equal(got, file) {
		t.Fatalf("the spool wrote a file the entry does not hold:\n%s\nentry:\n%s", file, got)
	}
	if _, tier, ok := sp.Lookup(ctx, registry.KindTopology, testKey); !ok || tier != "spool" {
		t.Fatalf("spool after promotion: ok %v, tier %q", ok, tier)
	}
	if v, ok := chain.Get(registry.KindTopology, testKey); !ok || v == nil {
		t.Fatal("the context-free Get misses what Lookup serves")
	}
}

// spoolFileOf names the one file in a spool directory.
func spoolFileOf(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	if len(names) != 1 {
		t.Fatalf("spool holds %v, want one file", names)
	}
	return names[0]
}
