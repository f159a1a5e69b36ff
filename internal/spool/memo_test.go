package spool

// TopoMemo tests: a sidecar shares its tier's live decoded topology, the
// memo never keeps one alive, and quarantine and eviction forget exactly
// the keys they drop.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// memoTopo is one spooled topology key and the keys of its four sidecars.
type memoTopo struct {
	key      string
	sidecars []sidecarKey
}

type sidecarKey struct {
	kind registry.Kind
	key  string
}

// writeMemoSpool spools testTopo under two topology keys (Ivy seeds 1 and
// 2), each with four sidecars — RR_CORE placements on 4, 8 and 16 threads
// and one mapping — and closes the spool, so every later load decodes
// from disk.
func writeMemoSpool(t *testing.T) (string, [2]memoTopo) {
	t.Helper()
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	top := testTopo()
	d := graph.GenTaskDAG(graph.DAGParams{}, 7)
	m, err := taskmap.Map(context.Background(), top, d, taskmap.Options{RefineBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	opt := mctopalg.Options{Reps: 51}
	var sets [2]memoTopo
	for i := range sets {
		seed := uint64(i + 1)
		tk := registry.TopoKey("Ivy", seed, opt)
		sets[i].key = tk
		s.Put(registry.KindTopology, tk, registry.NewEntry(registry.KindTopology, tk, top))
		for _, n := range []int{4, 8, 16} {
			pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: n})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("place|%s|%s|%d", tk, pl.PolicyName(), n)
			s.Put(registry.KindPlacement, key, registry.NewEntry(registry.KindPlacement, key, pl))
			sets[i].sidecars = append(sets[i].sidecars, sidecarKey{registry.KindPlacement, key})
		}
		mk := registry.MapKey("Ivy", seed, opt, d, 100)
		s.Put(registry.KindMapping, mk, registry.NewEntry(registry.KindMapping, mk, m))
		sets[i].sidecars = append(sets[i].sidecars, sidecarKey{registry.KindMapping, mk})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, sets
}

func reopen(t *testing.T, dir string, opts ...Option) *Spool {
	t.Helper()
	s, err := New(dir, append([]Option{WithLogf(t.Logf)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// topologyOf is the topology a loaded sidecar was rebuilt on.
func topologyOf(t *testing.T, v any) *topo.Topology {
	t.Helper()
	dep, ok := v.(interface{ Topology() *topo.Topology })
	if !ok {
		t.Fatalf("%T carries no topology", v)
	}
	return dep.Topology()
}

// loadTopology looks up one spooled topology, failing on a miss.
func loadTopology(t *testing.T, s *Spool, key string) *topo.Topology {
	t.Helper()
	v, ok := get(s, registry.KindTopology, key)
	if !ok {
		t.Fatalf("topology %q missed", key)
	}
	return v.(*topo.Topology)
}

// memoLen is how many entries the memo's map holds, dead or alive.
func memoLen(m *TopoMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// TestSidecarsShareLiveTopology: sidecars of two topologies loaded
// interleaved (A, B, A, B, ...) while every result is held resolve each
// topology once: every sidecar of A is rebuilt on the same *topo.Topology,
// which is also what a lookup of A itself returns. A one-entry memo would
// decode A afresh for every A sidecar, since a B sidecar always came
// between.
func TestSidecarsShareLiveTopology(t *testing.T) {
	dir, sets := writeMemoSpool(t)
	s := reopen(t, dir)
	var held []any
	var first [2]*topo.Topology
	for i := range sets[0].sidecars {
		for j, set := range sets {
			sc := set.sidecars[i]
			v, ok := get(s, sc.kind, sc.key)
			if !ok {
				t.Fatalf("%s %q missed", sc.kind, sc.key)
			}
			held = append(held, v)
			got := topologyOf(t, v)
			if first[j] == nil {
				first[j] = got
			} else if got != first[j] {
				t.Fatalf("sidecar %q rebuilt on a second decode of %q", sc.key, set.key)
			}
		}
	}
	if first[0] == first[1] {
		t.Fatal("sidecars of two topology keys share one topology")
	}
	for j, set := range sets {
		if got := loadTopology(t, s, set.key); got != first[j] {
			t.Fatalf("lookup of %q decoded again instead of reusing the live topology", set.key)
		}
	}
	runtime.KeepAlive(held)
}

// loadAndDrop loads every sidecar of sets, checks the memo resolved their
// topologies, and returns holding nothing. The sidecars are held until the
// check: the memo is weak, and a collection in between could empty it.
func loadAndDrop(t *testing.T, s *Spool, sets [2]memoTopo) {
	t.Helper()
	var held []any
	for _, set := range sets {
		for _, sc := range set.sidecars {
			v, ok := get(s, sc.kind, sc.key)
			if !ok {
				t.Fatalf("%s %q missed", sc.kind, sc.key)
			}
			held = append(held, v)
		}
	}
	if memoLen(&s.topos) != len(sets) {
		t.Fatalf("memo holds %d entries after loading, want %d", memoLen(&s.topos), len(sets))
	}
	runtime.KeepAlive(held)
}

// awaitMemoEmpty collects garbage until every topology the memo named has
// died and its cleanup has removed the entry.
func awaitMemoEmpty(t *testing.T, m *TopoMemo, keys ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		alive := 0
		for _, k := range keys {
			if m.Get(k) != nil {
				alive++
			}
		}
		if alive == 0 && memoLen(m) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("memo still holds %d entries (%d topologies alive) with no other reference", memoLen(m), alive)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTopoMemoRetainsNothing: once nothing else references the decoded
// topologies, they are collected and the memo's map empties — the memo
// bounds nothing and pins nothing.
func TestTopoMemoRetainsNothing(t *testing.T) {
	dir, sets := writeMemoSpool(t)
	s := reopen(t, dir)
	loadAndDrop(t, s, sets)
	awaitMemoEmpty(t, &s.topos, sets[0].key, sets[1].key)

	// A collected topology is decoded again on the next use, not lost.
	if _, ok := get(s, sets[0].sidecars[0].kind, sets[0].sidecars[0].key); !ok {
		t.Fatal("sidecar missed after its topology was collected")
	}
}

// TestMemoForgetsExactlyItsKeys: quarantine and spool eviction drop
// exactly the memo entries of the keys they remove — even while the
// topology is still alive elsewhere — and leave every other entry serving.
func TestMemoForgetsExactlyItsKeys(t *testing.T) {
	t.Run("quarantine", func(t *testing.T) {
		dir, sets := writeMemoSpool(t)
		// The third read (A again, after A and B) fails and quarantines A.
		fs := faultinject.New(1, faultinject.Fault{Point: faultinject.SpoolRead, Mode: "corrupt", After: 2, Count: 1})
		s := reopen(t, dir, WithFaults(fs))
		a := loadTopology(t, s, sets[0].key)
		b := loadTopology(t, s, sets[1].key)
		if _, ok := get(s, registry.KindTopology, sets[0].key); ok {
			t.Fatal("injected read fault did not miss")
		}
		if s.topos.Get(sets[0].key) != nil {
			t.Fatal("quarantined key still memoized")
		}
		if s.topos.Get(sets[1].key) != b {
			t.Fatal("quarantine of A dropped B's memo entry")
		}
		runtime.KeepAlive(a)
	})
	t.Run("eviction", func(t *testing.T) {
		dir, sets := writeMemoSpool(t)
		var total int64
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			fi, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		// The budget holds exactly what is spooled; one more topology
		// evicts the oldest, A (backdated), and its sidecars with it.
		s := reopen(t, dir, WithMaxBytes(total))
		a := loadTopology(t, s, sets[0].key)
		b := loadTopology(t, s, sets[1].key)
		backdate(t, filepath.Join(dir, fileName(sets[0].key, registry.KindTopology)), time.Hour)
		putTopo(t, s, registry.TopoKey("Ivy", 3, mctopalg.Options{Reps: 51}))
		if _, ok := get(s, registry.KindTopology, sets[0].key); ok {
			t.Fatal("A was not evicted")
		}
		if s.topos.Get(sets[0].key) != nil {
			t.Fatal("evicted key still memoized")
		}
		if s.topos.Get(sets[1].key) != b {
			t.Fatal("evicting A dropped B's memo entry")
		}
		runtime.KeepAlive(a)
	})
}

// TestTopoMemoConcurrent races Get, Set and Forget — and the cleanups the
// collector runs — over shared and per-goroutine keys (run under -race).
// A goroutine's own key, Set with a topology it still holds, must read
// back as that topology; once every goroutine is done the memo empties.
func TestTopoMemoConcurrent(t *testing.T) {
	desc := encodeTopo(t, testTopo())
	fresh := func() *topo.Topology {
		spec, err := topo.Decode(bytes.NewReader(desc))
		if err != nil {
			panic(err)
		}
		top, err := topo.FromSpec(*spec)
		if err != nil {
			panic(err)
		}
		return top
	}
	var m TopoMemo
	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("own%d", w)
			for i := 0; i < rounds; i++ {
				top := fresh()
				m.Set(own, top)
				m.Set("shared", top)
				if got := m.Get(own); got != top {
					t.Errorf("worker %d round %d: own key reads %p, want %p", w, i, got, top)
					return
				}
				m.Get("shared")
				switch i % 4 {
				case 1:
					m.Forget("shared")
				case 2:
					m.Forget(own)
				case 3:
					runtime.GC()
				}
				runtime.KeepAlive(top)
			}
		}(w)
	}
	wg.Wait()
	keys := []string{"shared"}
	for w := 0; w < workers; w++ {
		keys = append(keys, fmt.Sprintf("own%d", w))
	}
	awaitMemoEmpty(t, &m, keys...)
}
