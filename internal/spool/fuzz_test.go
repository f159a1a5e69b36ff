package spool

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/registry"
	"repro/internal/topo"
)

// FuzzDecode drives the interchange codec over all three kinds with
// arbitrary bytes. Decode must never panic, and any value it returns must
// re-encode to bytes that decode and re-encode identically: what a tier
// accepts, it can persist and serve again unchanged. Each input decodes
// under its kind's fixture key, and every sidecar resolves to the fixture
// topology, and every decoded topology must marshal as JSON (what
// /v1/topology serves). The seed corpus (testdata/fuzz/FuzzDecode) is the
// three committed spool fixtures plus truncations of them and named
// regressions (a NaN and an Inf bandwidth), so `go test` runs it as plain
// tests; `go test -fuzz FuzzDecode ./internal/spool` explores.
func FuzzDecode(f *testing.F) {
	var keys [registry.NumKinds]string
	var fixtureTopo *topo.Topology
	des, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, de := range des {
		kind, ok := registry.KindOfExt(filepath.Ext(de.Name()))
		if !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join("testdata", de.Name()))
		if err != nil {
			f.Fatal(err)
		}
		key, err := topo.ReadFrame(bytes.NewReader(b), magics[kind], nil)
		if err != nil {
			f.Fatal(err)
		}
		keys[kind] = key
		if kind == registry.KindTopology {
			e, err := Decode(bytes.NewReader(b), kind, key, nil)
			if err != nil {
				f.Fatal(err)
			}
			fixtureTopo = e.Val.(*topo.Topology)
		}
	}
	for kind, key := range keys {
		if key == "" {
			f.Fatalf("no fixture for kind %v", registry.Kind(kind))
		}
	}
	topologyFor := func(string) (*topo.Topology, error) { return fixtureTopo, nil }

	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		kind := registry.Kind(int(k) % int(registry.NumKinds))
		key := keys[kind]
		e, err := Decode(bytes.NewReader(data), kind, key, topologyFor)
		if err != nil {
			// A refused body yields no entry.
			if e != nil {
				t.Fatalf("Decode refused the body (%v) yet returned %#v", err, e)
			}
			return
		}
		// An accepted body is the entry asked for: its kind, its key.
		if e.Kind != kind || e.Key != key {
			t.Fatalf("Decode under (%v, %q) returned the entry (%v, %q)", kind, key, e.Kind, e.Key)
		}
		// A topology a tier accepts must be servable as JSON too: a
		// non-finite float would decode here yet fail /v1/topology's
		// encoder (the nan-stream-core-bw and inf-mem-bw seeds).
		if top, ok := e.Val.(*topo.Topology); ok {
			if _, err := json.Marshal(top.Spec()); err != nil {
				t.Fatalf("decoded topology does not marshal as JSON: %v", err)
			}
		}
		var first bytes.Buffer
		if err := Encode(&first, e); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", e.Val, err)
		}
		e2, err := Decode(bytes.NewReader(first.Bytes()), kind, key, topologyFor)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v\n%s", kind, err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, e2); err != nil {
			t.Fatalf("second decode of %v does not re-encode: %v", kind, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%v does not re-encode identically:\n%s\nthen\n%s", kind, first.Bytes(), second.Bytes())
		}
	})
}
