package spool

// Quarantine and fault-injection behavior: undecodable files move to
// quarantine/ exactly once (scan- and read-time), injected write faults
// flip the spool degraded and heal on the next good write, and a torn
// write is absorbed by the read path — corruption degrades to a miss,
// never to wrong bytes or a boot failure.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mctopalg"
	"repro/internal/registry"
)

func TestScanQuarantinesUndecodableFilesOnce(t *testing.T) {
	dir := t.TempDir()
	// Two undecodable spool files: one with no key header, one whose
	// header names a different key than its file name encodes.
	if err := os.WriteFile(filepath.Join(dir, "foreign-0000000000000000.mctop"), []byte("mctop 1\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lying := fileName("topo|Ivy|1|r51", registry.KindTopology)
	if err := os.WriteFile(filepath.Join(dir, lying), []byte("#key topo|Other|9|r11\nmctop 1\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()[0]
	if st.Quarantined != 2 {
		t.Fatalf("Quarantined = %d after scanning 2 bad files, want 2", st.Quarantined)
	}
	if st.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", st.Errors)
	}
	for _, name := range []string{"foreign-0000000000000000.mctop", lying} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still in the spool directory", name)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Errorf("%s not preserved under quarantine/: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The second restart must not see (or re-log) the bad files: the
	// whole point of quarantining over skip-and-log.
	s2, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2 := s2.Stats()[0]
	if st2.Quarantined != 0 || st2.Errors != 0 {
		t.Fatalf("second scan re-processed quarantined files: %+v", st2)
	}
}

func TestGetQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	top := testTopo()
	key := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	{
		s, err := New(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		s.Put(registry.NewEntry(registry.KindTopology, key, top))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the body but keep the key header, so the restart scan
	// indexes the entry and only Get discovers the damage.
	name := fileName(key, registry.KindTopology)
	corrupt := fmt.Sprintf("#key %s\nmctop 1\nname Ivy\n", key)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(dir, WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("scan indexed %d entries, want 1", s.Len())
	}
	if _, ok := get(s, registry.KindTopology, key); ok {
		t.Fatal("corrupt entry served")
	}
	st := s.Stats()[0]
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d after a corrupt Get, want 1", st.Quarantined)
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt entry still indexed (Len = %d)", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
		t.Fatalf("corrupt file not preserved under quarantine/: %v", err)
	}
	// The slot is reusable: a fresh Put restores a servable entry.
	s.Put(registry.NewEntry(registry.KindTopology, key, top))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, registry.KindTopology, key); !ok {
		t.Fatal("re-Put after quarantine did not serve")
	}
}

func TestInjectedWriteFaultDegradesAndHeals(t *testing.T) {
	fs := faultinject.New(1, faultinject.Fault{Point: faultinject.SpoolWrite, Mode: "enospc", Count: 1})
	s, err := New(t.TempDir(), WithLogf(t.Logf), WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if deg, _ := s.Degraded(); deg {
		t.Fatal("fresh spool reports degraded")
	}
	key := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if deg, reason := s.Degraded(); !deg || reason == "" {
		t.Fatal("spool not degraded after an injected ENOSPC write")
	}
	if _, ok := get(s, registry.KindTopology, key); ok {
		t.Fatal("failed write still served")
	}
	// The fault's count is spent: the next write lands and heals.
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("spool still degraded after a successful write")
	}
	if _, ok := get(s, registry.KindTopology, key); !ok {
		t.Fatal("healed spool does not serve")
	}
	if fs.Fires(faultinject.SpoolWrite) != 1 {
		t.Fatalf("fault fired %d times, want 1", fs.Fires(faultinject.SpoolWrite))
	}
}

func TestInjectedTornWriteIsQuarantinedOnRead(t *testing.T) {
	fs := faultinject.New(1, faultinject.Fault{Point: faultinject.SpoolWrite, Mode: "torn", Count: 1})
	dir := t.TempDir()
	s, err := New(dir, WithLogf(t.Logf), WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The torn file is indexed — the dangerous state — and the read path
	// must turn it into a quarantined miss, not a decode of half a file.
	if s.Len() != 1 {
		t.Fatalf("torn write not indexed (Len = %d)", s.Len())
	}
	if _, ok := get(s, registry.KindTopology, key); ok {
		t.Fatal("torn file served a topology")
	}
	if st := s.Stats()[0]; st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d after reading a torn file, want 1", st.Quarantined)
	}
	// Recovery: the next Put (fault spent) restores a good file.
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, registry.KindTopology, key); !ok {
		t.Fatal("spool did not recover after the torn write was quarantined")
	}
}

func TestInjectedReadFaultQuarantines(t *testing.T) {
	fs := faultinject.New(1, faultinject.Fault{Point: faultinject.SpoolRead, Mode: "corrupt", Count: 1})
	s, err := New(t.TempDir(), WithLogf(t.Logf), WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	s.Put(registry.NewEntry(registry.KindTopology, key, testTopo()))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, registry.KindTopology, key); ok {
		t.Fatal("injected read fault did not miss")
	}
	if st := s.Stats()[0]; st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}
