package remote

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// TestSidecarsShareFetchedTopology: an edge fetching the sidecars of two
// topologies interleaved (A, B, A, B, ...) while holding every result
// fetches each topology once — upstream requests = sidecars + distinct
// topologies — and rebuilds every sidecar of A on the same
// *topo.Topology. A one-entry memo refetches the topology for every
// sidecar, since one of the other topology's always came between.
func TestSidecarsShareFetchedTopology(t *testing.T) {
	top := testTopo()
	d := graph.GenTaskDAG(graph.DAGParams{}, 7)
	m, err := taskmap.Map(context.Background(), top, d, taskmap.Options{RefineBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	opt := mctopalg.Options{Reps: 51}
	bodies := map[string][]byte{}
	var order [2][]string // per topology: its sidecar keys
	var topoKeys [2]string
	for i := range topoKeys {
		seed := uint64(i + 1)
		tk := registry.TopoKey("Ivy", seed, opt)
		topoKeys[i] = tk
		var buf bytes.Buffer
		if err := spool.Encode(&buf, registry.NewEntry(registry.KindTopology, tk, top)); err != nil {
			t.Fatal(err)
		}
		bodies[tk] = buf.Bytes()
		for _, n := range []int{4, 8, 16} {
			pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: n})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("place|%s|%s|%d", tk, pl.PolicyName(), n)
			var buf bytes.Buffer
			if err := spool.Encode(&buf, registry.NewEntry(registry.KindPlacement, key, pl)); err != nil {
				t.Fatal(err)
			}
			bodies[key] = buf.Bytes()
			order[i] = append(order[i], key)
		}
		mk := registry.MapKey("Ivy", seed, opt, d, 100)
		var mbuf bytes.Buffer
		if err := spool.Encode(&mbuf, registry.NewEntry(registry.KindMapping, mk, m)); err != nil {
			t.Fatal(err)
		}
		bodies[mk] = mbuf.Bytes()
		order[i] = append(order[i], mk)
	}
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if b, ok := bodies[r.URL.Query().Get("key")]; ok {
			w.Write(b)
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	rm := newRemote(t, ts.URL)
	var held []any
	var first [2]*topo.Topology
	for i := range order[0] {
		for j := range order {
			key := order[j][i]
			kind := registry.KindPlacement
			if i == len(order[j])-1 {
				kind = registry.KindMapping
			}
			v, ok := get(rm, kind, key)
			if !ok {
				t.Fatalf("%s %q missed", kind, key)
			}
			held = append(held, v)
			got := v.(interface{ Topology() *topo.Topology }).Topology()
			if first[j] == nil {
				first[j] = got
			} else if got != first[j] {
				t.Fatalf("sidecar %q rebuilt on a second fetch of %q", key, topoKeys[j])
			}
		}
	}
	if first[0] == first[1] {
		t.Fatal("sidecars of two topology keys share one topology")
	}
	sidecars := len(order[0]) + len(order[1])
	if want := int64(sidecars + len(topoKeys)); requests.Load() != want || rm.Fetches() != want {
		t.Fatalf("%d upstream requests (%d counted), want %d: %d sidecars + %d topologies",
			requests.Load(), rm.Fetches(), want, sidecars, len(topoKeys))
	}
	runtime.KeepAlive(held)
}
