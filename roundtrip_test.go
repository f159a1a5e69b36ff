package mctop

// Description-file round-trip property: the spool tier (internal/spool)
// serves decoded description files in place of the topologies it encoded,
// so Decode(Encode(t)) must be lossless — not just structurally, but for
// every observable the serving path exposes: the query-index results
// (GetLatency, MaxLatencyBetween, PowerEstimate) and all 12 policy
// placements must be byte-identical to the original's, with and without
// enrichment. The five golden fixtures pin the enriched inputs; the
// stripped variants cover pre-enrichment topologies (no memory, cache or
// power payloads).

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/place"
	"repro/internal/topo"
)

// stripEnrichment rebuilds a topology without the plugin payloads.
func stripEnrichment(t *testing.T, top *Topology) *Topology {
	t.Helper()
	spec := top.Spec()
	spec.MemLat, spec.MemBW, spec.SocketBW = nil, nil, nil
	spec.StreamCoreBW = 0
	spec.Cache, spec.Power = nil, nil
	out, err := topo.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reDecode runs a topology through Encode → Decode → FromSpec, asserting
// the re-encoding is byte-identical on the way.
func reDecode(t *testing.T, top *Topology) *Topology {
	t.Helper()
	first := encodeSpec(t, top)
	spec, err := topo.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := topo.FromSpec(*spec)
	if err != nil {
		t.Fatal(err)
	}
	if second := encodeSpec(t, rt); !bytes.Equal(first, second) {
		t.Fatalf("re-encoding after a decode differs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	return rt
}

func TestDescriptionRoundTripLossless(t *testing.T) {
	for _, name := range Platforms() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			enriched, err := topo.LoadFile(goldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []struct {
				label string
				top   *Topology
			}{
				{"enriched", enriched},
				{"unenriched", stripEnrichment(t, enriched)},
			} {
				t.Run(variant.label, func(t *testing.T) {
					orig := variant.top
					rt := reDecode(t, orig)
					checkQueryResults(t, orig, rt)
					checkAllPlacements(t, orig, rt)
				})
			}
		})
	}
}

// checkQueryResults compares every query-index observable of the serving
// path between the original and round-tripped topology.
func checkQueryResults(t *testing.T, orig, rt *Topology) {
	t.Helper()
	n := orig.NumHWContexts()
	if rt.NumHWContexts() != n {
		t.Fatalf("contexts %d != %d", rt.NumHWContexts(), n)
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if a, b := orig.GetLatency(x, y), rt.GetLatency(x, y); a != b {
				t.Fatalf("GetLatency(%d,%d): %d != %d", x, y, a, b)
			}
		}
	}
	if a, b := orig.MaxLatency(), rt.MaxLatency(); a != b {
		t.Fatalf("MaxLatency: %d != %d", a, b)
	}
	// Random participant subsets for the bucketed queries; the seed is
	// fixed so a failure replays.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 32; trial++ {
		k := rng.Intn(n) + 1
		ctxs := make([]int, k)
		for i := range ctxs {
			ctxs[i] = rng.Intn(n)
		}
		if a, b := orig.MaxLatencyBetween(ctxs), rt.MaxLatencyBetween(ctxs); a != b {
			t.Fatalf("MaxLatencyBetween(%v): %d != %d", ctxs, a, b)
		}
		for _, withDRAM := range []bool{false, true} {
			perA, totalA := orig.PowerEstimate(ctxs, withDRAM)
			perB, totalB := rt.PowerEstimate(ctxs, withDRAM)
			if totalA != totalB {
				t.Fatalf("PowerEstimate(%v, %v) total: %v != %v", ctxs, withDRAM, totalA, totalB)
			}
			for s := range perA {
				if perA[s] != perB[s] {
					t.Fatalf("PowerEstimate(%v, %v) socket %d: %v != %v", ctxs, withDRAM, s, perA[s], perB[s])
				}
			}
		}
	}
}

// checkAllPlacements builds all 12 builtin policies on both topologies and
// asserts byte-identical results — assignment orders and the full Figure 7
// report (which folds in latencies, bandwidths and the power model).
func checkAllPlacements(t *testing.T, orig, rt *Topology) {
	t.Helper()
	for _, pol := range place.Policies() {
		for _, threads := range []int{0, 7} {
			plA, errA := place.NewFrom(orig, pol, place.Options{NThreads: threads})
			plB, errB := place.NewFrom(rt, pol, place.Options{NThreads: threads})
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v/%d: error mismatch: %v vs %v", pol, threads, errA, errB)
			}
			if errA != nil {
				// POWER on machines without power measurements fails on
				// both sides identically.
				if errA.Error() != errB.Error() {
					t.Fatalf("%v/%d: errors differ: %q vs %q", pol, threads, errA, errB)
				}
				continue
			}
			ctxA, ctxB := plA.Contexts(), plB.Contexts()
			if len(ctxA) != len(ctxB) {
				t.Fatalf("%v/%d: %d vs %d slots", pol, threads, len(ctxA), len(ctxB))
			}
			for i := range ctxA {
				if ctxA[i] != ctxB[i] {
					t.Fatalf("%v/%d: slot %d: %d != %d", pol, threads, i, ctxA[i], ctxB[i])
				}
			}
			if plA.String() != plB.String() {
				t.Fatalf("%v/%d: Figure 7 report differs:\n%s\nvs\n%s", pol, threads, plA, plB)
			}
		}
	}
}
