package topo

// Property tests for the precomputed query index: on all five golden
// platforms, the indexed hot paths (PowerEstimate, the memoized socket
// orders) must equal the pre-index reference implementations they were
// built from. The latency queries are checked on more shapes than these in
// oracle_test.go. The index changes cost, never results.

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

var goldenPlatformFiles = []string{
	"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop",
}

func loadGolden(t *testing.T, file string) *Topology {
	t.Helper()
	top, err := LoadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("loading golden %s: %v", file, err)
	}
	return top
}

// randomSubset draws k distinct context ids (k may exceed n: duplicates are
// then deliberately included, since the public API accepts them).
func randomSubset(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// floatsEqualULP compares power figures up to float summation order: the
// pre-index PowerEstimate accumulated per-core terms in map iteration order,
// which is nondeterministic in the last few ulps (it returns values differing
// at ~1e-14 for the same input across runs), while the indexed one sums in
// ascending core order. Equality therefore holds up to that reordering noise,
// never beyond it.
func floatsEqualULP(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := 1.0
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		scale = m
	}
	return diff <= 1e-9*scale
}

func TestIndexPowerEstimateMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		n := top.NumHWContexts()
		for trial := 0; trial < 50; trial++ {
			ctxs := randomSubset(rng, n, 1+rng.Intn(n))
			if trial%7 == 0 {
				ctxs = append(ctxs, -5, n) // unknown ids are skipped
			}
			for _, withDRAM := range []bool{false, true} {
				gotPer, gotTotal := top.PowerEstimate(ctxs, withDRAM)
				wantPer, wantTotal := top.powerEstimateMap(ctxs, withDRAM)
				ok := floatsEqualULP(gotTotal, wantTotal) && len(gotPer) == len(wantPer)
				for i := 0; ok && i < len(gotPer); i++ {
					ok = floatsEqualULP(gotPer[i], wantPer[i])
				}
				if !ok {
					t.Fatalf("%s: PowerEstimate(%v, %v) = (%v, %v), map = (%v, %v)",
						file, ctxs, withDRAM, gotPer, gotTotal, wantPer, wantTotal)
				}
			}
		}
	}
}

func TestIndexSocketOrdersMatchSorts(t *testing.T) {
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		if got, want := top.SocketsByLocalBW(), top.socketsByLocalBWSort(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SocketsByLocalBW mismatch", file)
		}
		for s := 0; s < top.NumSockets(); s++ {
			if got, want := top.SocketsByLatencyFrom(s), top.socketsByLatencyFromSort(s); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SocketsByLatencyFrom(%d) mismatch", file, s)
			}
			sock := top.Socket(s)
			if got, want := top.SocketGetCores(sock), top.socketGetCoresScan(sock); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SocketGetCores(%d) mismatch", file, s)
			}
		}
		for c := 0; c < top.NumHWContexts(); c += 7 {
			got := top.ContextsByLatencyFrom(c)
			if len(got) != top.NumHWContexts()-1 {
				t.Fatalf("%s: ContextsByLatencyFrom(%d) has %d entries", file, c, len(got))
			}
			for i := 1; i < len(got); i++ {
				la, lb := top.GetLatency(c, got[i-1]), top.GetLatency(c, got[i])
				if la > lb || (la == lb && got[i-1] > got[i]) {
					t.Fatalf("%s: ContextsByLatencyFrom(%d) out of order at %d", file, c, i)
				}
			}
		}
	}
}

// TestIndexReturnedSlicesAreCopies guards the memoization against callers
// that reorder the returned slices (placement builds sort socket lists).
func TestIndexReturnedSlicesAreCopies(t *testing.T) {
	top := loadGolden(t, "opteron.mctop")
	bw := top.SocketsByLocalBW()
	bw[0], bw[1] = bw[1], bw[0]
	if reflect.DeepEqual(bw, top.SocketsByLocalBW()) {
		t.Error("SocketsByLocalBW returned a shared slice")
	}
	near := top.SocketsByLatencyFrom(0)
	near[0], near[1] = near[1], near[0]
	if reflect.DeepEqual(near, top.SocketsByLatencyFrom(0)) {
		t.Error("SocketsByLatencyFrom returned a shared slice")
	}
	cores := top.SocketGetCores(top.Socket(0))
	cores[0], cores[1] = cores[1], cores[0]
	if reflect.DeepEqual(cores, top.SocketGetCores(top.Socket(0))) {
		t.Error("SocketGetCores returned a shared slice")
	}
}

// TestIndexConcurrentFirstUse exercises the lazy sync.Once build under
// concurrency (run with -race).
func TestIndexConcurrentFirstUse(t *testing.T) {
	top := loadGolden(t, "westmere.mctop")
	n := top.NumHWContexts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				x, y := rng.Intn(n), rng.Intn(n)
				if got, want := top.GetLatency(x, y), specLatency(&top.spec, x, y); got != want {
					t.Errorf("GetLatency(%d, %d) = %d, want %d", x, y, got, want)
					return
				}
				top.MaxLatency()
				top.PowerEstimate([]int{x, y}, false)
			}
		}(g)
	}
	wg.Wait()
}

// TestSocketGetCoresForeignSocket pins the pre-index behavior: a socket
// belonging to another topology matches nothing.
func TestSocketGetCoresForeignSocket(t *testing.T) {
	a := loadGolden(t, "ivy.mctop")
	b := loadGolden(t, "ivy.mctop")
	if cores := a.SocketGetCores(b.Socket(0)); cores != nil {
		t.Errorf("foreign socket returned %d cores, want none", len(cores))
	}
	if cores := a.SocketGetCores(nil); cores != nil {
		t.Errorf("nil socket returned %d cores, want none", len(cores))
	}
}

// specLatency is the latency the spec gives two contexts, read from its
// partitions alone: 0 for a context with itself, -1 for an unknown one, the
// socket matrix across sockets, and otherwise the median of the lowest
// grouped level with a group that holds both. It is the reference every
// latency query of the index is checked against.
func specLatency(spec *Spec, x, y int) int64 {
	if x == y {
		return 0
	}
	if uint(x) >= uint(spec.Contexts) || uint(y) >= uint(spec.Contexts) {
		return -1
	}
	for _, l := range spec.Levels {
		for _, g := range l.Groups {
			if slices.Contains(g, x) && slices.Contains(g, y) {
				return l.Median
			}
		}
	}
	socketOf := func(ctx int) int {
		return slices.IndexFunc(spec.Levels[spec.socketLevelIdx()].Groups, func(g []int) bool { return slices.Contains(g, ctx) })
	}
	return spec.SocketLat[socketOf(x)][socketOf(y)]
}

// maxLatencyBetweenPairs is the pre-index MaxLatencyBetween: the maximum of
// lat, a reference latency, over every pair of ctxs.
func maxLatencyBetweenPairs(lat func(x, y int) int64, ctxs []int) int64 {
	var max int64
	for i := 0; i < len(ctxs); i++ {
		for j := i + 1; j < len(ctxs); j++ {
			if l := lat(ctxs[i], ctxs[j]); l > max {
				max = l
			}
		}
	}
	return max
}

// powerEstimateMap is the pre-index PowerEstimate: per-call maps over the
// core pointers. Reference implementation for the property tests.
func (t *Topology) powerEstimateMap(ctxs []int, withDRAM bool) (perSocket []float64, total float64) {
	perSocket = make([]float64, len(t.sockets))
	if !t.spec.Power.Available() {
		return perSocket, 0
	}
	ctxPerCore := make(map[*HWCGroup]int)
	active := make([]bool, len(t.sockets))
	for _, id := range ctxs {
		c := t.Context(id)
		if c == nil {
			continue
		}
		ctxPerCore[c.Core]++
		active[c.Socket.ID] = true
	}
	for s := range t.sockets {
		if active[s] {
			perSocket[s] = t.spec.Power.PerSocketBase
			if withDRAM {
				perSocket[s] += t.spec.Power.DRAM
			}
		}
	}
	for core, n := range ctxPerCore {
		perSocket[core.Socket.ID] += t.spec.Power.PerFirstCtx + float64(n-1)*t.spec.Power.PerExtraCtx
	}
	for _, p := range perSocket {
		total += p
	}
	return perSocket, total
}
