package spool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// bindingSeeds are the FuzzDecode seeds that break a rule binding a file to
// the key it is read under. Each was once decodable; each must now be
// refused by Decode and quarantined by the spool (and, in internal/remote,
// negative-cached by the remote tier).
var bindingSeeds = []string{
	"topology-two-key-lines", "placement-two-key-lines", "mapping-two-key-lines",
	"topology-empty-key-line", "placement-empty-key-line", "mapping-empty-key-line",
	"topology-no-key-line", "placement-no-key-line", "mapping-no-key-line",
	"topology-directive-after-end", "placement-directive-after-end", "mapping-directive-after-end",
	"placement-foreign-topokey", "mapping-foreign-topokey",
	"mapping-foreign-dag",
}

// refusedSeeds adds to bindingSeeds the keyed, framed description files
// whose spec fails Validate: refused alike, never as a typed nil value.
var refusedSeeds = append([]string{"topology-ragged-socket-lat-keyed", "topology-short-mem-bw-keyed"}, bindingSeeds...)

// readSeed parses one FuzzDecode corpus file: its kind byte and its body.
func readSeed(t *testing.T, name string) (registry.Kind, []byte) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	k, err1 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(lines[1], "uint8("), ")"))
	body, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if len(lines) != 3 || err1 != nil || err2 != nil {
		t.Fatalf("%s is not a (uint8, []byte) corpus file", name)
	}
	return registry.Kind(k % int(registry.NumKinds)), []byte(body)
}

// fixtureFiles reads the committed spool fixtures: per kind, the key its
// header names, its file name and its bytes.
func fixtureFiles(t *testing.T) (keys, names [registry.NumKinds]string, files [registry.NumKinds][]byte) {
	t.Helper()
	des, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		kind, ok := registry.KindOfExt(filepath.Ext(de.Name()))
		if !ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join("testdata", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if keys[kind], err = topo.ReadFrame(bytes.NewReader(b), magics[kind], nil); err != nil {
			t.Fatal(err)
		}
		names[kind], files[kind] = de.Name(), b
	}
	return keys, names, files
}

// anyTopology resolves every topology key to the fixture topology: a
// sidecar naming a foreign topology would resolve too, were it not bound.
func anyTopology(t *testing.T, desc []byte) func(string) (*topo.Topology, error) {
	spec, err := topo.Decode(bytes.NewReader(desc))
	if err != nil {
		t.Fatal(err)
	}
	top, err := topo.FromSpec(*spec)
	if err != nil {
		t.Fatal(err)
	}
	return func(string) (*topo.Topology, error) { return top, nil }
}

// TestFixturesDecodeToTheirExactBytes: every committed fixture decodes
// under its key and re-encodes to the exact bytes it was read from.
func TestFixturesDecodeToTheirExactBytes(t *testing.T) {
	keys, _, files := fixtureFiles(t)
	topologyFor := anyTopology(t, files[registry.KindTopology])
	for kind, key := range keys {
		e, err := Decode(bytes.NewReader(files[kind]), registry.Kind(kind), key, topologyFor)
		if err != nil {
			t.Fatalf("%v fixture: %v", registry.Kind(kind), err)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, e); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), files[kind]) {
			t.Errorf("%v fixture re-encodes to other bytes:\n%s", registry.Kind(kind), buf.Bytes())
		}
	}
}

// TestDecodeRefusesUnboundFiles: Decode refuses each of refusedSeeds under
// its kind's fixture key, even though every topology key resolves, and
// returns no entry.
func TestDecodeRefusesUnboundFiles(t *testing.T) {
	keys, _, files := fixtureFiles(t)
	topologyFor := anyTopology(t, files[registry.KindTopology])
	for _, name := range refusedSeeds {
		kind, body := readSeed(t, name)
		if e, err := Decode(bytes.NewReader(body), kind, keys[kind], topologyFor); err == nil || e != nil {
			t.Errorf("%s: decoded under %q to %#v (err %v)", name, keys[kind], e, err)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestSpoolQuarantinesUnboundFiles plants each of refusedSeeds as its kind's
// fixture file, beside good fixtures and a Haswell topology a foreign
// topokey could resolve to. The startup scan or the Lookup quarantines it,
// and the key is a miss.
func TestSpoolQuarantinesUnboundFiles(t *testing.T) {
	keys, names, files := fixtureFiles(t)
	foreign := strings.Replace(keys[registry.KindTopology], "|Ivy|", "|Haswell|", 1)
	haswell := strings.Replace(string(files[registry.KindTopology]), "#key "+keys[registry.KindTopology], "#key "+foreign, 1)
	for _, name := range refusedSeeds {
		t.Run(name, func(t *testing.T) {
			kind, body := readSeed(t, name)
			dir := t.TempDir()
			for k, b := range files {
				if registry.Kind(k) == kind {
					b = body
				}
				if err := os.WriteFile(filepath.Join(dir, names[k]), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, fileName(foreign, registry.KindTopology)), []byte(haswell), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := New(dir, WithLogf(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, ok := get(s, kind, keys[kind]); ok {
				t.Fatal("an unbound file was served")
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, names[kind])); err != nil {
				t.Fatalf("not quarantined: %v", err)
			}
		})
	}
}

// TestCraftedDAGNameCannotPoisonAMapping: a DAG name is a value of the
// .map sidecar. A name that smuggles in its own dag, algo, cost, assign and
// end lines is refused at the registry, and the .map file it would have
// left — planted by hand before a restart — is quarantined, so the next
// DAG of that structure gets a computed mapping, not the injected one.
func TestCraftedDAGNameCannotPoisonAMapping(t *testing.T) {
	ctx := context.Background()
	opt := mctopalg.Options{Reps: 51}
	victim := &graph.TaskDAG{
		Name:  "victim",
		Nodes: []graph.TaskNode{{ID: 0, Work: 1000}, {ID: 1, Work: 1000}},
		Edges: []graph.TaskEdge{{From: 0, To: 1, Volume: 4096}},
	}
	crafted := *victim
	crafted.Name = fmt.Sprintf("x\ndag %016x 2 1\nalgo evil\ncost 1\nassign 39 39\nend", victim.Hash())
	dir := t.TempDir()
	open := func() *registry.Registry {
		sp, err := New(dir, WithLogf(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sp.Close() })
		return registry.New(registry.Options{
			MaxEntries: 16,
			Tiers:      []registry.Store{sp},
			InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
				return testTopo(), nil
			},
		})
	}

	reg := open()
	if _, _, err := reg.LookupTopologyContext(ctx, "Ivy", 1, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.MapDAGContext(ctx, "Ivy", 1, opt, &crafted, 0); !errors.Is(err, mctoperr.ErrInvalidRequest) {
		t.Fatalf("crafted DAG name: err = %v, want ErrInvalidRequest", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// What the crafted request wrote before names were checked: its
	// header and topokey, then its name's lines, ending at its own `end`.
	key := registry.MapKey("Ivy", 1, opt, victim, 0)
	topoKey, _ := registry.KindMapping.ParentKey(key)
	poisoned := fmt.Sprintf("#key %s\n%s\ntopokey %s\ndagname %s\ndag %016x 2 1\nalgo greedy\ncost 2000\nassign 0 0\nend\n",
		key, mapMagic, topoKey, crafted.Name, victim.Hash())
	if err := os.WriteFile(filepath.Join(dir, fileName(key, registry.KindMapping)), []byte(poisoned), 0o644); err != nil {
		t.Fatal(err)
	}

	reg = open()
	m, err := reg.MapDAGContext(ctx, "Ivy", 1, opt, victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := taskmap.Map(ctx, testTopo(), victim, taskmap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Algo() != want.Algo() || m.Cost() != want.Cost() || !slices.Equal(m.Assignment(), want.Assignment()) {
		t.Fatalf("served %s cost %d assignment %v, want the computed %s cost %d assignment %v",
			m.Algo(), m.Cost(), m.Assignment(), want.Algo(), want.Cost(), want.Assignment())
	}
	if st := reg.Stats(); st.Mappings != 1 || st.Inferences != 0 {
		t.Fatalf("restarted registry computed %d mappings and %d inferences, want 1 and 0", st.Mappings, st.Inferences)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, fileName(key, registry.KindMapping))); err != nil {
		t.Fatalf("poisoned .map file not quarantined: %v", err)
	}
}
