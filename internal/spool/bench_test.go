package spool

import (
	"context"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/plugins"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/topo"
)

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
		InferCtx: realInfer,
		Store:    registry.NewTiered(registry.NewLRU(64), sp),
	}), sp
}

// spoolHit reads key from the spool tier alone, the way the registry's
// chain does once the memory tier has lost the entry.
func spoolHit(sp *Spool, kind registry.Kind, key string) bool {
	_, _, ok := sp.Lookup(context.Background(), kind, key)
	return ok
}

// BenchmarkWarmStartTopologyLookup is the cost of serving a topology from
// a populated spool with a cold memory tier — what every entry of a
// restarted daemon pays once. Compare against the registry package's
// BenchmarkColdInfer: the acceptance bar is >= 50x cheaper than inferring
// (in practice the decode is ~10^2-10^3x cheaper).
func BenchmarkWarmStartTopologyLookup(b *testing.B) {
	opt := mctopalg.Options{Reps: 51}
	r, sp := benchSpoolRegistry(b, b.TempDir())
	if _, _, err := r.LookupTopologyContext(context.Background(), "Ivy", 42, opt); err != nil {
		b.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	key := registry.TopoKey("Ivy", 42, opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !spoolHit(sp, registry.KindTopology, key) {
			b.Fatal("spool missed a flushed topology")
		}
	}
}

// BenchmarkWarmStartPlacementLookup is the disk path for placements: the
// sidecar decode plus the topology decode it references.
func BenchmarkWarmStartPlacementLookup(b *testing.B) {
	opt := mctopalg.Options{Reps: 51}
	r, sp := benchSpoolRegistry(b, b.TempDir())
	if _, err := r.PlaceContext(context.Background(), "Ivy", 42, opt, "RR_CORE", 8); err != nil {
		b.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	key := "place|" + registry.TopoKey("Ivy", 42, opt) + "|MCTOP_PLACE_RR_CORE|8"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !spoolHit(sp, registry.KindPlacement, key) {
			b.Fatal("spool missed a flushed placement")
		}
	}
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
		InferCtx: realInfer,
		Store:    registry.NewTiered(registry.NewLRU(64), sp),
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
