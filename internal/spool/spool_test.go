package spool

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/topo"
)

// testTopo infers a small enriched Ivy topology once and shares it.
var testTopo = sync.OnceValue(func() *topo.Topology {
	res, err := registry.Infer(context.Background(), "Ivy", 1, mctopalg.Options{Reps: 51})
	if err != nil {
		panic(err)
	}
	return res.Topology
})

func encodeTopo(t *testing.T, top *topo.Topology) []byte {
	t.Helper()
	var buf bytes.Buffer
	spec := top.Spec()
	if err := topo.Encode(&buf, &spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// get is Lookup outside any request: the value of the entry it returns.
func get(s *Spool, kind registry.Kind, key string) (any, bool) {
	e, _, ok := s.Lookup(context.Background(), kind, key)
	if !ok {
		return nil, false
	}
	return e.Val, true
}

func newTestSpool(t *testing.T) *Spool {
	t.Helper()
	s, err := New(t.TempDir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTopologyRoundTripThroughSpool(t *testing.T) {
	top := testTopo()
	opt := mctopalg.Options{Reps: 51}
	key := registry.TopoKey("Ivy", 1, opt)

	s := newTestSpool(t)
	s.Put(registry.NewEntry(registry.KindTopology, key, top))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after one put, want 1", s.Len())
	}

	// Same process: Get decodes the file back.
	v, ok := get(s, registry.KindTopology, key)
	if !ok {
		t.Fatal("spooled topology missed")
	}
	if got := encodeTopo(t, v.(*topo.Topology)); !bytes.Equal(got, encodeTopo(t, top)) {
		t.Fatal("spooled topology is not byte-identical to the original")
	}

	// Fresh process: a new Spool over the same dir scans the file in.
	s2, err := New(s.Dir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("fresh spool scanned %d entries, want 1", s2.Len())
	}
	v2, ok := get(s2, registry.KindTopology, key)
	if !ok {
		t.Fatal("fresh spool missed the scanned topology")
	}
	if got := encodeTopo(t, v2.(*topo.Topology)); !bytes.Equal(got, encodeTopo(t, top)) {
		t.Fatal("fresh-spool topology is not byte-identical to the original")
	}

	// Wrong kind and unknown keys miss.
	if _, ok := get(s2, registry.KindPlacement, key); ok {
		t.Fatal("topology key served as a placement")
	}
	if _, ok := get(s2, registry.KindTopology, key+"x"); ok {
		t.Fatal("unknown key hit")
	}
}

func TestPlacementSidecarRoundTrip(t *testing.T) {
	top := testTopo()
	opt := mctopalg.Options{Reps: 51}
	tk := registry.TopoKey("Ivy", 1, opt)

	pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	pk := fmt.Sprintf("place|%s|%s|%d", tk, pl.PolicyName(), 8)

	s := newTestSpool(t)
	s.Put(registry.NewEntry(registry.KindTopology, tk, top))
	s.Put(registry.NewEntry(registry.KindPlacement, pk, pl))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh spool rebuilds the placement from the sidecar + topology.
	s2, err := New(s.Dir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok := get(s2, registry.KindPlacement, pk)
	if !ok {
		t.Fatal("spooled placement missed")
	}
	got := v.(*place.Placement)
	if got.PolicyName() != pl.PolicyName() || got.Policy() != place.RRCore {
		t.Fatalf("policy identity lost: %s/%v", got.PolicyName(), got.Policy())
	}
	wantCtxs := fmt.Sprint(pl.Contexts())
	if fmt.Sprint(got.Contexts()) != wantCtxs {
		t.Fatalf("contexts %v, want %v", got.Contexts(), pl.Contexts())
	}
	if got.String() != pl.String() {
		t.Fatalf("Figure 7 report differs:\n%s\nvs\n%s", got.String(), pl.String())
	}
}

// TestScanSkipsUndecodableFiles: torn, corrupt, foreign and stale-temp
// files must be logged and skipped, never fail startup or a read.
func TestScanSkipsUndecodableFiles(t *testing.T) {
	dir := t.TempDir()
	top := testTopo()
	opt := mctopalg.Options{Reps: 51}
	good := registry.TopoKey("Ivy", 1, opt)

	{
		s, err := New(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		s.Put(registry.NewEntry(registry.KindTopology, good, top))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A torn description file (valid header, truncated body).
	tornKey := registry.TopoKey("Ivy", 2, opt)
	torn := fmt.Sprintf("#key %s\nmctop 1\nname Ivy\ncontexts 16\n", tornKey)
	if err := os.WriteFile(filepath.Join(dir, fileName(tornKey, registry.KindTopology)), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file with no key header.
	if err := os.WriteFile(filepath.Join(dir, "foreign-0000000000000000.mctop"), []byte("mctop 1\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage under a .place name, and a stale temp file.
	if err := os.WriteFile(filepath.Join(dir, "junk-0000000000000000.place"), []byte("#key junk\nnot a sidecar\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "whatever.mctop.12345.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged atomic.Int64
	s, err := New(dir, WithLogf(func(format string, args ...any) {
		logged.Add(1)
		t.Logf("spool: "+format, args...)
	}))
	if err != nil {
		t.Fatalf("startup failed on a dirty spool: %v", err)
	}
	defer s.Close()
	if logged.Load() == 0 {
		t.Fatal("dirty spool produced no skip logs")
	}
	// The stale temp file is cleaned up.
	if _, err := os.Stat(filepath.Join(dir, "whatever.mctop.12345.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived the scan")
	}
	// The good entry still serves.
	if _, ok := get(s, registry.KindTopology, good); !ok {
		t.Fatal("good entry lost among the junk")
	}
	// The torn entry scanned (its header is fine) but degrades to a miss
	// at read time, with an error counted.
	if _, ok := get(s, registry.KindTopology, tornKey); ok {
		t.Fatal("torn description file served a topology")
	}
	st := s.Stats()[0]
	if st.Errors == 0 {
		t.Fatalf("stats show no errors after reading a torn file: %+v", st)
	}
}

// TestTieredWarmStart is the tentpole behavior at store level: a fresh
// LRU over a populated spool serves without a single inference, and the
// served bytes match the inferring run's.
func TestTieredWarmStart(t *testing.T) {
	dir := t.TempDir()
	opt := mctopalg.Options{Reps: 51}
	var inferences atomic.Int64
	infer := func(_ context.Context, platform string, seed uint64, o mctopalg.Options) (*topo.Topology, error) {
		inferences.Add(1)
		res, err := registry.Infer(context.Background(), platform, seed, o)
		if err != nil {
			return nil, err
		}
		return res.Topology, nil
	}

	newReg := func() *registry.Registry {
		sp, err := New(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sp.Close() })
		return registry.New(registry.Options{
			InferCtx:   infer,
			MaxEntries: 64,
			Tiers:      []registry.Store{sp},
		})
	}

	// Process 1: infer, place, flush.
	r1 := newReg()
	top1, _, err := r1.LookupTopologyContext(context.Background(), "Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	pl1, err := r1.PlaceContext(context.Background(), "Ivy", 42, opt, "CON_HWC", 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := inferences.Load(); n != 1 {
		t.Fatalf("process 1 ran %d inferences, want 1", n)
	}

	// Process 2: fresh LRU, same spool dir — zero inferences.
	r2 := newReg()
	pl2, err := r2.PlaceContext(context.Background(), "Ivy", 42, opt, "CON_HWC", 30)
	if err != nil {
		t.Fatal(err)
	}
	top2, _, err := r2.LookupTopologyContext(context.Background(), "Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := inferences.Load(); n != 1 {
		t.Fatalf("warm start ran %d extra inference(s), want 0", n-1)
	}
	if st := r2.Stats(); st.Inferences != 0 {
		t.Fatalf("warm registry Stats().Inferences = %d, want 0", st.Inferences)
	}
	if !bytes.Equal(encodeTopo(t, top2), encodeTopo(t, top1)) {
		t.Fatal("warm-start topology is not byte-identical")
	}
	if pl2.String() != pl1.String() || fmt.Sprint(pl2.Contexts()) != fmt.Sprint(pl1.Contexts()) {
		t.Fatal("warm-start placement differs from the inferring run's")
	}

	// The warm topology was promoted into the LRU tier: a re-read is a
	// pure memory hit returning the same instance.
	again, _, err := r2.LookupTopologyContext(context.Background(), "Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != top2 {
		t.Fatal("second warm read was not served from the promoted LRU entry")
	}

	// Registry stats expose both tiers.
	st := r2.Stats()
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "lru" || st.Tiers[1].Tier != "spool" {
		t.Fatalf("tier stats = %+v", st.Tiers)
	}
}

// TestSpoolConcurrent hammers Put/Get/Flush from many goroutines (run
// with -race).
func TestSpoolConcurrent(t *testing.T) {
	s := newTestSpool(t)
	top := testTopo()
	opt := mctopalg.Options{Reps: 51}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := registry.TopoKey("Ivy", uint64((g+i)%5), opt)
				switch i % 3 {
				case 0:
					s.Put(registry.NewEntry(registry.KindTopology, key, top))
				case 1:
					get(s, registry.KindTopology, key)
				case 2:
					s.Flush()
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5 distinct keys", s.Len())
	}
	// Close is idempotent and Puts after Close are dropped, not panics.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put(registry.NewEntry(registry.KindTopology, "late", top))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestEntryFileIsEncodedOnceAndNeverSeeded: the writer persists the entry's
// own interchange file (Encoded), so the bytes on disk are the bytes the
// entry holds for every other reader; an entry read back starts with no
// file form, and encodes canonically even when the file it was decoded
// from is not canonical.
func TestEntryFileIsEncodedOnceAndNeverSeeded(t *testing.T) {
	key := registry.TopoKey("Ivy", 1, mctopalg.Options{Reps: 51})
	e := registry.NewEntry(registry.KindTopology, key, testTopo())
	s := newTestSpool(t)
	s.Put(e)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), fileName(key, registry.KindTopology))
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Rendered(registry.FormFile), file) {
		t.Fatal("the spooled file is not the entry's interchange file")
	}

	// A hand-edited, still decodable file: a second comment line.
	header, body, _ := bytes.Cut(file, []byte("\n"))
	edited := append(append(append([]byte(nil), header...), "\n# edited by hand\n"...), body...)
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(s.Dir(), WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	read, _, ok := s2.Lookup(context.Background(), registry.KindTopology, key)
	if !ok {
		t.Fatal("the edited file did not decode")
	}
	if read.Rendered(registry.FormFile) != nil {
		t.Fatal("an entry read from disk came with its file form seeded")
	}
	if got, err := Encoded(read); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("the read entry encodes as\n%s\n(%v), want the canonical file", got, err)
	}
}
