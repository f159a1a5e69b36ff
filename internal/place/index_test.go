package place

// Tests for the query-index-era placement fast paths: the incremental
// power greedy must produce byte-identical orders to the exhaustive scan it
// replaced, roundRobin's limit must be a pure prefix, the PinNext free-slot
// cursor must preserve the lowest-free-slot contract under pin/unpin
// churn, and ParsePolicy's init-time reverse map must accept exactly what
// the per-call loop accepted.

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topo"
)

var goldenPlatformFiles = []string{
	"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop",
}

func loadGolden(t *testing.T, file string) *topo.Topology {
	t.Helper()
	top, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", file))
	if err != nil {
		t.Fatalf("loading golden %s: %v", file, err)
	}
	return top
}

func TestPowerOrderMatchesScan(t *testing.T) {
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		if !top.Power().Available() {
			continue // POWER is Intel-only; Opteron and SPARC have no model
		}
		nCtx := top.NumHWContexts()
		for _, nSockets := range []int{1, 2, top.NumSockets()} {
			if nSockets > top.NumSockets() {
				continue
			}
			for _, nThreads := range []int{0, 1, 2, 3, 5, 8, nCtx / 2, nCtx - 1, nCtx, nCtx + 9} {
				got := powerOrder(top, nSockets, nThreads)
				want := powerOrderScan(top, nSockets, nThreads)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: powerOrder(nSockets=%d, nThreads=%d)\n got %v\nwant %v",
						file, nSockets, nThreads, got, want)
				}
			}
		}
	}
}

func TestRoundRobinLimitIsPrefix(t *testing.T) {
	perSocket := [][]int{{0, 1, 2, 3}, {10, 11}, {20, 21, 22, 23, 24}, {}}
	full := roundRobin(perSocket, 0)
	for limit := 1; limit <= len(full)+3; limit++ {
		got := roundRobin(perSocket, limit)
		want := full
		if limit < len(full) {
			want = full[:limit]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundRobin(limit=%d) = %v, want %v", limit, got, want)
		}
	}
}

// TestPinNextCursor drives random pin/unpin churn against a straightforward
// first-free-slot model.
func TestPinNextCursor(t *testing.T) {
	top := loadGolden(t, "ivy.mctop")
	pl, err := New(top, Sequential, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := make([]bool, pl.NThreads()) // model[i] = slot i taken
	var pinned []int
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(pinned) == 0 {
			ctx, ok := pl.PinNext()
			wantSlot := -1
			for i, taken := range model {
				if !taken {
					wantSlot = i
					break
				}
			}
			if wantSlot == -1 {
				if ok {
					t.Fatalf("step %d: PinNext ok with all slots taken", step)
				}
				continue
			}
			if !ok || ctx != wantSlot { // Sequential: slot i holds context i
				t.Fatalf("step %d: PinNext = (%d, %v), want (%d, true)", step, ctx, ok, wantSlot)
			}
			model[wantSlot] = true
			pinned = append(pinned, ctx)
		} else {
			i := rng.Intn(len(pinned))
			ctx := pinned[i]
			pinned = append(pinned[:i], pinned[i+1:]...)
			pl.Unpin(ctx)
			model[ctx] = false
		}
	}
}

func TestParsePolicyReverseMap(t *testing.T) {
	for _, pol := range Policies() {
		name := pol.String()
		for _, variant := range []string{
			name,
			strings.TrimPrefix(name, "MCTOP_PLACE_"),
			strings.ToLower(name),
			"  " + strings.TrimPrefix(name, "MCTOP_PLACE_") + " ",
		} {
			got, err := ParsePolicy(variant)
			if err != nil || got != pol {
				t.Errorf("ParsePolicy(%q) = (%v, %v), want %v", variant, got, err, pol)
			}
		}
	}
	for _, bad := range []string{"", "MCTOP_PLACE_", "bogus", "MCTOP_PLACE_MCTOP_PLACE_NONE"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) unexpectedly succeeded", bad)
		}
	}
}

// powerOrderScan is the pre-index powerOrder: a full PowerEstimate per
// remaining candidate per step. Kept as the reference powerOrder is
// property-tested (and benchmarked) against.
func powerOrderScan(t *topo.Topology, nSockets, nThreads int) []int {
	allowed := map[int]bool{}
	for _, s := range socketOrder(t, false, nSockets) {
		allowed[s.ID] = true
	}
	n := nThreads
	if n == 0 {
		n = t.NumHWContexts()
	}
	var chosen []int
	inUse := map[int]bool{}
	for len(chosen) < n {
		_, cur := t.PowerEstimate(chosen, false)
		best, bestDelta := -1, 0.0
		for _, c := range t.Contexts() {
			if inUse[c.ID] || !allowed[c.Socket.ID] {
				continue
			}
			_, with := t.PowerEstimate(append(chosen, c.ID), false)
			delta := with - cur
			if best == -1 || delta < bestDelta {
				best, bestDelta = c.ID, delta
			}
		}
		if best == -1 {
			break
		}
		chosen = append(chosen, best)
		inUse[best] = true
	}
	return chosen
}
