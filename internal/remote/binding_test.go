package remote

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/topo"
)

// spoolTestdata holds the spool's committed fixtures (Ivy, seed 42, reps
// 51; RR_CORE on 8 threads; the gen-7 DAG at refine 100) and its FuzzDecode
// corpus.
const spoolTestdata = "../spool/testdata"

// TestUnboundBodiesAreNegativeCached serves each of the spool's
// binding-rule FuzzDecode seeds, and the keyed description files whose
// spec is invalid, as the origin's body for its fixture key,
// and every topology key — a foreign topokey's included — as the fixture
// topology. The edge never serves the unbound body: it negative-caches the
// key and computes the answer locally, which is the fixture's.
func TestUnboundBodiesAreNegativeCached(t *testing.T) {
	var keys [registry.NumKinds]string
	var files [registry.NumKinds][]byte
	des, err := os.ReadDir(spoolTestdata)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		kind, ok := registry.KindOfExt(filepath.Ext(de.Name()))
		if !ok {
			continue
		}
		if files[kind], err = os.ReadFile(filepath.Join(spoolTestdata, de.Name())); err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(files[kind]), "\n")
		keys[kind] = strings.TrimPrefix(header, "#key ")
	}
	spec, err := topo.Decode(bytes.NewReader(files[registry.KindTopology]))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := topo.FromSpec(*spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := mctopalg.Options{Reps: 51}

	for _, name := range []string{
		"topology-two-key-lines", "placement-two-key-lines", "mapping-two-key-lines",
		"topology-empty-key-line", "placement-empty-key-line", "mapping-empty-key-line",
		"topology-no-key-line", "placement-no-key-line", "mapping-no-key-line",
		"topology-directive-after-end", "placement-directive-after-end", "mapping-directive-after-end",
		"placement-foreign-topokey", "mapping-foreign-topokey",
		"mapping-foreign-dag",
		// Keyed and framed, but their specs fail Validate.
		"topology-ragged-socket-lat-keyed", "topology-short-mem-bw-keyed",
	} {
		t.Run(name, func(t *testing.T) {
			kind, body := readSeed(t, name)
			key := keys[kind]
			var fetches atomic.Int64 // of key
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				k := r.URL.Query().Get("key")
				switch {
				case k == key:
					fetches.Add(1)
					w.Write(body)
				case strings.HasPrefix(k, "topo|"):
					spool.Encode(w, registry.NewEntry(registry.KindTopology, k, fixture))
				default:
					http.NotFound(w, r)
				}
			}))
			defer ts.Close()
			rm := newRemote(t, ts.URL, WithNegTTL(time.Minute))
			var inferences atomic.Int64
			reg := registry.New(registry.Options{
				MaxEntries: 16,
				Tiers:      []registry.Store{rm},
				InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
					inferences.Add(1)
					return fixture, nil
				},
			})

			ctx := context.Background()
			var got any
			switch kind {
			case registry.KindTopology:
				got, _, err = reg.LookupTopologyContext(ctx, "Ivy", 42, opt)
			case registry.KindPlacement:
				got, err = reg.PlaceContext(ctx, "Ivy", 42, opt, "RR_CORE", 8)
			case registry.KindMapping:
				got, err = reg.MapDAGContext(ctx, "Ivy", 42, opt, graph.GenTaskDAG(graph.DAGParams{}, 7), 100)
			}
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := spool.Encode(&buf, registry.NewEntry(kind, key, got)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), files[kind]) {
				t.Fatalf("the edge answered\n%s\nnot the computed fixture", buf.Bytes())
			}
			st := reg.Stats()
			if computed := st.Inferences + st.Placements + st.Mappings; computed != 1 {
				t.Fatalf("the edge computed %d answers, want 1 (stats %+v)", computed, st)
			}
			if kind == registry.KindTopology && inferences.Load() != 1 {
				t.Fatalf("%d local inferences, want 1", inferences.Load())
			}
			// Negative-cached: within the TTL the key is neither
			// re-fetched nor served.
			before := fetches.Load()
			if _, ok := get(rm, kind, key); ok || fetches.Load() != before || before != 1 {
				t.Fatalf("served %v after %d fetches (then %d)", ok, before, fetches.Load())
			}
		})
	}
}

// readSeed parses one of the spool's FuzzDecode corpus files: its kind byte
// and its body.
func readSeed(t *testing.T, name string) (registry.Kind, []byte) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(spoolTestdata, "fuzz", "FuzzDecode", name))
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
