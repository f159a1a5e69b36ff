package spool

// Spool hygiene tests: the WithMaxBytes/WithMaxAge bounds evict
// oldest-mtime files first, at the startup scan and after Flush, and the
// evictions surface in StoreStats.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/place"
	"repro/internal/registry"
)

// putTopo spools testTopo under key and flushes so the file is on disk.
func putTopo(t *testing.T, s *Spool, key string) string {
	t.Helper()
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(s.dir, fileName(key, registry.KindTopology))
}

// backdate sets a spool file's mtime age seconds into the past.
func backdate(t *testing.T, path string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBytesEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	p1 := putTopo(t, s, "topo|A|1|r51")
	p2 := putTopo(t, s, "topo|B|1|r51")
	p3 := putTopo(t, s, "topo|C|1|r51")
	backdate(t, p1, 3*time.Hour)
	backdate(t, p2, 2*time.Hour)
	backdate(t, p3, time.Hour)
	fi, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a budget that fits two files: the startup scan must
	// evict exactly the oldest.
	s2, err := New(dir, WithLogf(t.Logf), WithMaxBytes(2*fi.Size()+fi.Size()/2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("after scan with byte bound: %d entries, want 2", s2.Len())
	}
	if _, err := os.Stat(p1); !os.IsNotExist(err) {
		t.Fatalf("oldest file survived the byte bound: %v", err)
	}
	for _, p := range []string{p2, p3} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("newer file evicted: %v", err)
		}
	}
	st := s2.Stats()[0]
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestMaxAgeEvictsAfterFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf), WithMaxAge(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pOld := putTopo(t, s, "topo|old|1|r51")
	backdate(t, pOld, 2*time.Hour)
	pNew := putTopo(t, s, "topo|new|1|r51") // Flush enforces the bound

	if _, err := os.Stat(pOld); !os.IsNotExist(err) {
		t.Fatalf("stale file survived Flush: %v", err)
	}
	if _, err := os.Stat(pNew); err != nil {
		t.Fatalf("fresh file evicted: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// The evicted entry must also be gone from the index: a Get degrades
	// to a miss, not an error.
	if _, ok := get(s, registry.KindTopology, "topo|old|1|r51"); ok {
		t.Fatal("evicted entry still served")
	}
	if st := s.Stats()[0]; st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionCascadesToDependentSidecars(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf), WithMaxAge(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	topoKey := "topo|Ivy|1|r51"
	placeKey := "place|" + topoKey + "|MCTOP_PLACE_RR_CORE|4"
	pTopo := putTopo(t, s, topoKey)
	pl, err := place.NewFrom(testTopo(), place.RRCore, place.Options{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(registry.NewEntry(registry.KindPlacement, placeKey, pl))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Only the topology is stale — but evicting it must cascade to the
	// sidecar, which could never load again without it.
	backdate(t, pTopo, 2*time.Hour)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after cascading eviction, want 0", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(placeKey, registry.KindPlacement))); !os.IsNotExist(err) {
		t.Fatalf("orphaned sidecar survived its topology's eviction: %v", err)
	}
	if st := s.Stats()[0]; st.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2 (topology + cascaded sidecar)", st.Evictions)
	}
}

// TestPlacementPutPersistsItsTopology: a sidecar is only loadable through
// its referenced .mctop file, so a placement Put that arrives alone (the
// remote-tier promotion path — the edge never Puts the topology) must
// persist the topology alongside, or a restarted edge re-infers.
func TestPlacementPutPersistsItsTopology(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	topoKey := "topo|Ivy|1|r51"
	placeKey := "place|" + topoKey + "|MCTOP_PLACE_RR_CORE|4"
	pl, err := place.NewFrom(testTopo(), place.RRCore, place.Options{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(registry.NewEntry(registry.KindPlacement, placeKey, pl))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{fileName(topoKey, registry.KindTopology), fileName(placeKey, registry.KindPlacement)} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s after a lone placement Put: %v", f, err)
		}
	}
	// A fresh spool over the directory serves the placement on its own.
	s2, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := get(s2, registry.KindPlacement, placeKey); !ok {
		t.Fatal("restarted spool cannot serve the lone-Put placement")
	}
}

func TestUnboundedSpoolNeverEvicts(t *testing.T) {
	s := newTestSpool(t)
	p := putTopo(t, s, "topo|A|1|r51")
	backdate(t, p, 24*time.Hour)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("unbounded spool evicted: %v", err)
	}
	if st := s.Stats()[0]; st.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", st.Evictions)
	}
}
