package spool

import (
	"context"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/registry"
)

// benchSpoolRegistry builds a spool-backed registry over dir and returns
// it with its spool tier, which benchmarks read directly to take the disk
// path.
func benchSpoolRegistry(b *testing.B, dir string) (*registry.Registry, *Spool) {
	b.Helper()
	sp, err := New(dir, WithLogf(b.Logf))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sp.Close() })
	return registry.New(registry.Options{
		MaxEntries: 64,
		Tiers:      []registry.Store{sp},
	}), sp
}

// spoolHit reads key from the spool tier alone, the way the registry's
// chain does once the memory tier has lost the entry.
func spoolHit(sp *Spool, kind registry.Kind, key string) bool {
	_, _, ok := sp.Lookup(context.Background(), kind, key)
	return ok
}

// warmStartBench populates a spool with Ivy's topology (kind
// KindTopology) or one of its RR_CORE placements (KindPlacement) and times
// reading that entry back from the spool tier alone. Unless memoHit, the
// topology's entry in the spool's weak memo is dropped before each read, so
// every read decodes the description file — and a placement's read also the
// topology file it references — as the first read after a restart does.
// Dropping the entry is a map delete under a mutex, noise beside a decode.
func warmStartBench(b *testing.B, kind registry.Kind, memoHit bool) {
	opt := mctopalg.Options{Reps: 51}
	r, sp := benchSpoolRegistry(b, b.TempDir())
	topoKey := registry.TopoKey("Ivy", 42, opt)
	key := topoKey
	if kind == registry.KindPlacement {
		if _, err := r.PlaceContext(context.Background(), "Ivy", 42, opt, "RR_CORE", 8); err != nil {
			b.Fatal(err)
		}
		key = "place|" + topoKey + "|MCTOP_PLACE_RR_CORE|8"
	} else if _, _, err := r.LookupTopologyContext(context.Background(), "Ivy", 42, opt); err != nil {
		b.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !memoHit {
			sp.topos.Forget(topoKey)
		}
		if !spoolHit(sp, kind, key) {
			b.Fatalf("spool missed a flushed %v", kind)
		}
	}
}

// BenchmarkWarmStartTopologyLookup is the cost of serving a topology from
// a populated spool with a cold memory tier and an empty memo — what every
// entry of a restarted daemon pays once: a read and decode of the file.
// Compare against the registry package's BenchmarkColdInfer.
func BenchmarkWarmStartTopologyLookup(b *testing.B) {
	warmStartBench(b, registry.KindTopology, false)
}

// BenchmarkWarmStartTopologyLookupMemoHit is the same read while the
// spool's weak memo still holds the decoded topology: a map lookup, and
// no file is read.
func BenchmarkWarmStartTopologyLookupMemoHit(b *testing.B) {
	warmStartBench(b, registry.KindTopology, true)
}

// BenchmarkWarmStartPlacementLookup is the disk path for placements: the
// sidecar decode plus the decode of the topology it references.
func BenchmarkWarmStartPlacementLookup(b *testing.B) {
	warmStartBench(b, registry.KindPlacement, false)
}

// BenchmarkWarmStartPlacementLookupMemoHit is the placement read while the
// memo still holds the topology: the sidecar's read and decode alone.
func BenchmarkWarmStartPlacementLookupMemoHit(b *testing.B) {
	warmStartBench(b, registry.KindPlacement, true)
}

// TestWarmStartSpeedup is the PR's acceptance check, the restart analogue
// of the registry's TestCachedLookupSpeedup: a warm-start lookup (cold
// memory, populated spool) must be at least 50x faster than a cold
// inference. The margin in practice is two to three orders of magnitude,
// so the assertion is far from flaky.
func TestWarmStartSpeedup(t *testing.T) {
	dir := t.TempDir()
	opt := mctopalg.Options{Reps: 51}
	sp, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := registry.New(registry.Options{
		MaxEntries: 64,
		Tiers:      []registry.Store{sp},
	})

	coldStart := time.Now()
	if _, _, err := r.LookupTopologyContext(context.Background(), "Ivy", 42, opt); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	const lookups = 20
	key := registry.TopoKey("Ivy", 42, opt)
	warmStart := time.Now()
	for i := 0; i < lookups; i++ {
		if !spoolHit(sp, registry.KindTopology, key) {
			t.Fatal("spool missed a flushed topology")
		}
	}
	warm := time.Since(warmStart) / lookups
	if warm == 0 {
		warm = 1
	}
	speedup := float64(cold) / float64(warm)
	t.Logf("cold infer %v, warm-start lookup %v, speedup %.0fx", cold, warm, speedup)
	if speedup < 50 {
		t.Fatalf("warm-start lookup only %.1fx faster than cold inference, want >= 50x", speedup)
	}
}
