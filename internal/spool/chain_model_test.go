package spool

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// chainKey is one key of the model's key space and the lookup that asks
// for it.
type chainKey struct {
	kind     registry.Kind
	key      string
	platform string
	seed     uint64
	policy   string // placements
	threads  int    // placements
	topoKey  string // placements and mappings: the key of their topology
}

// TestTierChainModel drives seeded random sequences of topology, placement
// and mapping lookups through a registry over a real spool directory — the
// LRU bound drawn from 1–4 at every start, restarts that Flush and Close
// the spool and reopen it on the same directory — and checks each lookup
// against a map model of what the chain must answer:
//
//   - every answer's interchange bytes are the model's, computed outside
//     the chain;
//   - each key computes at most once over the whole sequence, unless its
//     spool write was still queued when it was looked up again (Flush and
//     Close make every queued write durable);
//   - an answer is computed exactly when the lookup counts a miss, and
//     Hits + Misses is the number of lookups, a derived kind's nested
//     topology lookup included;
//   - each tier's per-kind counters sum to its totals, and the LRU holds
//     at most its bound.
func TestTierChainModel(t *testing.T) {
	ctx := context.Background()
	opt := mctopalg.Options{Reps: 51}
	dag := graph.GenTaskDAG(graph.DAGParams{}, 7)
	const refine = 20
	var keys []chainKey
	for _, platform := range []string{"gen:ring:s2:c2:t2", "gen:mesh:s2:c2:t1"} {
		for seed := uint64(1); seed <= 3; seed++ {
			tk := registry.TopoKey(platform, seed, opt)
			keys = append(keys,
				chainKey{kind: registry.KindTopology, key: tk, platform: platform, seed: seed},
				chainKey{kind: registry.KindMapping, key: registry.MapKey(platform, seed, opt, dag, refine),
					platform: platform, seed: seed, topoKey: tk})
			for _, pl := range []struct {
				policy  string
				threads int
			}{{"RR_CORE", 2}, {"SEQUENTIAL", 3}} {
				pol, err := place.Resolve(pl.policy)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, chainKey{kind: registry.KindPlacement,
					key:      fmt.Sprintf("place|%s|%s|%d", tk, pol.Name(), pl.threads),
					platform: platform, seed: seed, policy: pl.policy, threads: pl.threads, topoKey: tk})
			}
		}
	}

	// The model: each key's interchange bytes, computed on first need from
	// a topology inferred outside the chain.
	tops := map[string]*topo.Topology{}
	want := map[string][]byte{}
	model := func(k chainKey) []byte {
		if b, ok := want[k.key]; ok {
			return b
		}
		tk := k.topoKey
		if k.kind == registry.KindTopology {
			tk = k.key
		}
		top := tops[tk]
		if top == nil {
			res, err := registry.Infer(ctx, k.platform, k.seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			top, tops[tk] = res.Topology, res.Topology
		}
		var v any = top
		var err error
		switch k.kind {
		case registry.KindPlacement:
			var pol place.Policy
			if pol, err = place.Resolve(k.policy); err == nil {
				v, err = place.NewFrom(top, pol, place.Options{NThreads: k.threads})
			}
		case registry.KindMapping:
			v, err = taskmap.Map(ctx, top, dag, taskmap.Options{RefineBudget: refine})
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encoded(registry.NewEntry(k.kind, k.key, v))
		if err != nil {
			t.Fatal(err)
		}
		want[k.key] = b
		return b
	}

	for run := uint64(0); run < 4; run++ {
		dir := t.TempDir()
		state := run * rng.Increment
		draw := func(n int) int {
			state += rng.Increment
			return int(rng.Mix(state) % uint64(n))
		}
		computes := map[string]int{} // over the whole sequence
		queued := map[string]bool{}  // computed since the last Flush or Close
		var (
			reg     *registry.Registry
			bound   int
			lookups int64 // since the last start
			requeue int   // recomputes of a key whose spool write was queued
		)
		start := func() {
			s, err := New(dir, WithLogf(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			bound, lookups = 1+draw(4), 0
			r := registry.New(registry.Options{MaxEntries: bound, Tiers: []registry.Store{s}})
			t.Cleanup(func() { r.Close() }) // a failed run's writer stops before its directory goes
			reg = r
		}
		stop := func() {
			if err := reg.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			clear(queued)
		}
		computed := func(key string) {
			if computes[key] > 0 && !queued[key] {
				t.Fatalf("run %d: %q computed again, though its spool file was durable", run, key)
			}
			if computes[key] > 0 {
				requeue++
			}
			computes[key]++
			queued[key] = true
		}

		start()
		for step := 0; step < 200; step++ {
			switch draw(24) {
			case 0:
				stop()
				start()
				continue
			case 1:
				if err := reg.Flush(); err != nil {
					t.Fatal(err)
				}
				clear(queued)
				continue
			}
			k := keys[draw(len(keys))]
			before := reg.Stats()
			lctx, sv := registry.ContextWithServed(ctx)
			var err error
			hit := true
			switch k.kind {
			case registry.KindTopology:
				_, hit, err = reg.LookupTopologyContext(lctx, k.platform, k.seed, opt)
			case registry.KindPlacement:
				_, err = reg.PlaceContext(lctx, k.platform, k.seed, opt, k.policy, k.threads)
			case registry.KindMapping:
				_, err = reg.MapDAGContext(lctx, k.platform, k.seed, opt, dag, refine)
			}
			if err != nil {
				t.Fatalf("run %d step %d: %s %q: %v", run, step, k.kind, k.key, err)
			}
			after := reg.Stats()
			lookups++

			inferred := after.Inferences - before.Inferences
			derived := after.Placements - before.Placements + after.Mappings - before.Mappings
			switch {
			case sv.Tier == "computed" && k.kind == registry.KindTopology:
				if inferred != 1 || derived != 0 || hit {
					t.Fatalf("run %d step %d: computed %q: %d inferences, %d derived computes, hit %v",
						run, step, k.key, inferred, derived, hit)
				}
				computed(k.key)
			case sv.Tier == "computed":
				if inferred > 1 || derived != 1 {
					t.Fatalf("run %d step %d: computed %q: %d inferences, %d derived computes",
						run, step, k.key, inferred, derived)
				}
				lookups++ // the nested lookup of its topology
				if inferred == 1 {
					computed(k.topoKey)
				}
				computed(k.key)
			case sv.Tier == "lru" || sv.Tier == "spool":
				if inferred != 0 || derived != 0 || !hit || computes[k.key] == 0 {
					t.Fatalf("run %d step %d: %s answered %q (computed %d times before) with %d inferences, %d derived computes, hit %v",
						run, step, sv.Tier, k.key, computes[k.key], inferred, derived, hit)
				}
			default:
				t.Fatalf("run %d step %d: %q answered by tier %q", run, step, k.key, sv.Tier)
			}
			if got, err := Encoded(sv.Entry); err != nil || !bytes.Equal(got, model(k)) {
				t.Fatalf("run %d step %d: %s answer to %q differs from the model's bytes (%v)", run, step, sv.Tier, k.key, err)
			}
			if after.Hits+after.Misses != lookups || after.Misses != after.Inferences+after.Placements+after.Mappings {
				t.Fatalf("run %d step %d: %d hits + %d misses over %d lookups, %d computes",
					run, step, after.Hits, after.Misses, lookups, after.Inferences+after.Placements+after.Mappings)
			}
			if after.Entries > bound {
				t.Fatalf("run %d step %d: LRU of bound %d holds %d entries", run, step, bound, after.Entries)
			}
			for _, st := range after.Tiers {
				var sum registry.KindStats
				for _, ks := range st.Kinds {
					sum.Hits += ks.Hits
					sum.Misses += ks.Misses
					sum.Evictions += ks.Evictions
					sum.Entries += ks.Entries
				}
				if sum != (registry.KindStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}) {
					t.Fatalf("run %d step %d: %s per-kind counters sum to %+v, totals %+v", run, step, st.Tier, sum, st)
				}
			}
		}
		stop()
		if requeue > 0 {
			t.Logf("run %d: %d recomputes of keys whose spool write was still queued", run, requeue)
		}
	}
}
