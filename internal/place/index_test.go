package place

// Tests for the query-index-era placement fast paths: the incremental
// power greedy must produce byte-identical orders to the exhaustive scan it
// replaced, roundRobin's limit must be a pure prefix, the PinNext free-slot
// cursor must preserve the lowest-free-slot contract under pin/unpin
// churn, Resolve's init-time reverse map must accept exactly what the
// per-call loop accepted, and the accessors over the memoized occupancy
// must equal the per-call map passes they replaced.

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

var goldenPlatformFiles = []string{
	"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop",
}

func loadGolden(t testing.TB, file string) *topo.Topology {
	t.Helper()
	top, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", file))
	if err != nil {
		t.Fatalf("loading golden %s: %v", file, err)
	}
	return top
}

func TestPowerOrderMatchesScan(t *testing.T) {
	var tops []*topo.Topology
	for _, file := range goldenPlatformFiles {
		tops = append(tops, loadGolden(t, file))
	}
	// Generated platforms have no power model; they borrow Haswell's.
	power := loadGolden(t, "haswell.mctop").Power()
	for _, name := range []string{"gen:mesh:s4:c8:t2", "gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2"} {
		p, err := sim.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := enriched(t, p).Spec()
		spec.Power = power
		top, err := topo.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, top)
	}
	for _, top := range tops {
		if !top.Power().Available() {
			continue // POWER is Intel-only; Opteron and SPARC have no model
		}
		file := top.Name()
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
	pl, err := NewFrom(top, Sequential, Options{})
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
			got, err := Resolve(variant)
			if err != nil || got != pol {
				t.Errorf("Resolve(%q) = (%v, %v), want %v", variant, got, err, pol)
			}
		}
	}
	for _, bad := range []string{"", "MCTOP_PLACE_", "bogus", "MCTOP_PLACE_MCTOP_PLACE_NONE"} {
		if _, err := Resolve(bad); err == nil {
			t.Errorf("Resolve(%q) unexpectedly succeeded", bad)
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

// TestOccupancyAccessorsMatchMaps checks the accessors that read the
// memoized occupancy against the map-based passes they replaced, over the
// 12 x 5 policy matrix (NONE included: all -1), combinator chains and
// reconstructed placements.
func TestOccupancyAccessorsMatchMaps(t *testing.T) {
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		nCtx := top.NumHWContexts()
		for _, pol := range Policies() {
			for _, o := range []Orderer{
				pol,
				OnSockets(pol, 0).Limit(8).Reverse(),
				Reverse(pol).OnSockets(top.NumSockets()-1, 0),
			} {
				for _, n := range []int{0, 1, 5, 9, nCtx / 2, nCtx} {
					pl, err := NewFrom(top, o, Options{NThreads: n})
					if err != nil {
						continue // POWER without power data
					}
					re, err := Reconstruct(top, pl.PolicyName(), pl.Contexts())
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range []*Placement{pl, re} {
						var got, want []int
						for _, s := range p.SocketsUsed() {
							got = append(got, s.ID)
						}
						for _, s := range socketsUsedMap(p) {
							want = append(want, s.ID)
						}
						if !reflect.DeepEqual(got, want) ||
							p.NCores() != nCoresMap(p) ||
							!reflect.DeepEqual(p.CtxPerSocket(), ctxPerSocketMap(p)) ||
							!reflect.DeepEqual(p.CoresPerSocket(), coresPerSocketMap(p)) ||
							p.MaxLatency() != top.MaxLatencyBetween(pinned(p)) {
							t.Fatalf("%s %s x%d: accessors differ from the map passes:\n%s", file, o.Name(), n, p)
						}
					}
				}
			}
		}
	}
}

// TestOccupancyIsLazy pins the allocation contract of the memo: building a
// placement allocates nothing for the occupancy, and a warmed placement
// answers the five accessors /v1/place calls with a handful of
// result-slice allocations. An RR_CORE build is one allocation on every
// machine, the Placement: its slots are a prefix of the order the topology
// memoized on the first build, which happens outside the measurement.
func TestOccupancyIsLazy(t *testing.T) {
	for _, c := range []struct {
		file    string
		threads int
		build   float64 // NewFrom's allocations
	}{{"ivy.mctop", 20, 1}, {"westmere.mctop", 64, 1}, {"sparc.mctop", 128, 1}} {
		top := loadGolden(t, c.file)
		// Build the topology's index and its RR_CORE order outside the
		// measurement.
		top.GetLatency(0, 1)
		if _, err := NewFrom(top, RRCore, Options{}); err != nil {
			t.Fatal(err)
		}
		var pl *Placement
		if got := testing.AllocsPerRun(20, func() {
			pl, _ = NewFrom(top, RRCore, Options{NThreads: c.threads})
		}); got != c.build {
			t.Errorf("%s: NewFrom allocates %v, want %v", c.file, got, c.build)
		}
		pl.Occupancy()
		if got := testing.AllocsPerRun(20, func() {
			pl.Contexts()
			pl.NCores()
			pl.CtxPerSocket()
			pl.MaxLatency()
			pl.MinBandwidth()
		}); got > 8 {
			t.Errorf("%s: the /v1/place accessors allocate %v on a warmed placement, want <= 8", c.file, got)
		}
	}
}

// TestOccupancyConcurrentFirstUse exercises the lazy sync.Once build under
// concurrency (run with -race).
func TestOccupancyConcurrentFirstUse(t *testing.T) {
	top := loadGolden(t, "westmere.mctop")
	pl, err := NewFrom(top, RRCore, Options{NThreads: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := nCoresMap(pl)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := pl.NCores(); got != want {
				t.Errorf("NCores() = %d, want %d", got, want)
			}
			pl.CtxPerSocket()
			pl.MaxLatency()
			_ = pl.String()
		}()
	}
	wg.Wait()
}

// pinned and the four *Map functions below are the accessors as they were
// before the memoized occupancy: one pass over the context list per call,
// through maps. Kept as the reference the occupancy is property-tested
// against.
func pinned(p *Placement) []int {
	var out []int
	for _, c := range p.ctxs {
		if c >= 0 {
			out = append(out, c)
		}
	}
	return out
}

func socketsUsedMap(p *Placement) []*topo.Socket {
	seen := map[int]bool{}
	var out []*topo.Socket
	for _, c := range pinned(p) {
		s := p.t.Context(c).Socket
		if !seen[s.ID] {
			seen[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func nCoresMap(p *Placement) int {
	seen := map[*topo.HWCGroup]bool{}
	for _, c := range pinned(p) {
		seen[p.t.Context(c).Core] = true
	}
	return len(seen)
}

func ctxPerSocketMap(p *Placement) []int {
	sockets := socketsUsedMap(p)
	idx := map[int]int{}
	for i, s := range sockets {
		idx[s.ID] = i
	}
	counts := make([]int, len(sockets))
	for _, c := range pinned(p) {
		counts[idx[p.t.Context(c).Socket.ID]]++
	}
	return counts
}

func coresPerSocketMap(p *Placement) []int {
	sockets := socketsUsedMap(p)
	idx := map[int]int{}
	for i, s := range sockets {
		idx[s.ID] = i
	}
	seen := map[*topo.HWCGroup]bool{}
	counts := make([]int, len(sockets))
	for _, c := range pinned(p) {
		core := p.t.Context(c).Core
		if !seen[core] {
			seen[core] = true
			counts[idx[core.Socket.ID]]++
		}
	}
	return counts
}
