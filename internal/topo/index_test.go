package topo

// Property tests for the precomputed query index: on all five golden
// platforms, the indexed hot paths (GetLatency, MaxLatencyBetween,
// PowerEstimate, the memoized socket orders) must equal the pre-index
// reference implementations they were built from — for every context pair
// and for random context subsets. The index changes cost, never results.

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
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

func TestIndexGetLatencyMatchesWalk(t *testing.T) {
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		n := top.NumHWContexts()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if got, want := top.GetLatency(x, y), top.getLatencyWalk(x, y); got != want {
					t.Fatalf("%s: GetLatency(%d, %d) = %d, walk = %d", file, x, y, got, want)
				}
			}
		}
		// Out-of-range behavior is part of the contract.
		if got := top.GetLatency(-1, 0); got != -1 {
			t.Errorf("%s: GetLatency(-1, 0) = %d, want -1", file, got)
		}
		if got := top.GetLatency(0, n); got != -1 {
			t.Errorf("%s: GetLatency(0, n) = %d, want -1", file, got)
		}
		if got := top.GetLatency(n+3, n+3); got != 0 {
			t.Errorf("%s: GetLatency(x, x) = %d, want 0 even out of range", file, got)
		}
	}
}

// TestLatenciesFromMatchesGetLatency: the batch query equals GetLatency
// element by element for every source id, out-of-range ones included, over
// the full context list and over candidate lists with out-of-range and
// repeated ids; dst's capacity is reused and its old contents never leak.
func TestLatenciesFromMatchesGetLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		n := top.NumHWContexts()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		lists := [][]int{nil, all, {-1, 0, n, n - 1, -7, n + 2, 0, n - 1, -1}}
		for trial := 0; trial < 20; trial++ {
			l := randomSubset(rng, n+6, 1+rng.Intn(2*n))
			for i := range l {
				l[i] -= 3 // ids in [-3, n+3)
			}
			lists = append(lists, l)
		}
		dst := make([]int64, 0, n/2)
		for x := -2; x < n+2; x++ {
			for _, ctxs := range lists {
				for i := range dst[:cap(dst)] {
					dst[:cap(dst)][i] = 12345 // stale contents must be overwritten
				}
				dst = top.LatenciesFrom(x, ctxs, dst)
				if len(dst) != len(ctxs) {
					t.Fatalf("%s: LatenciesFrom(%d) returned %d entries for %d ids", file, x, len(dst), len(ctxs))
				}
				for i, c := range ctxs {
					if got, want := dst[i], top.GetLatency(x, c); got != want {
						t.Fatalf("%s: LatenciesFrom(%d)[%d] (ctx %d) = %d, GetLatency = %d", file, x, i, c, got, want)
					}
				}
			}
		}
		// x out of range and equal to an out-of-range candidate: the
		// diagonal is 0, as for GetLatency.
		if got := top.LatenciesFrom(n+3, []int{n + 3, 0}, nil); got[0] != 0 || got[1] != -1 {
			t.Errorf("%s: LatenciesFrom(n+3, {n+3, 0}) = %v, want [0 -1]", file, got)
		}
	}
}

func TestIndexMaxLatencyBetweenMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, file := range goldenPlatformFiles {
		top := loadGolden(t, file)
		n := top.NumHWContexts()
		for trial := 0; trial < 50; trial++ {
			k := 1 + rng.Intn(2*n)
			ctxs := randomSubset(rng, n, k)
			if trial%5 == 0 {
				ctxs = append(ctxs, -1, n+7) // unknown ids never contribute
			}
			if got, want := top.MaxLatencyBetween(ctxs), top.maxLatencyBetweenWalk(ctxs); got != want {
				t.Fatalf("%s: MaxLatencyBetween(%v) = %d, walk = %d", file, ctxs, got, want)
			}
		}
		if got := top.MaxLatencyBetween(nil); got != 0 {
			t.Errorf("%s: MaxLatencyBetween(nil) = %d, want 0", file, got)
		}
		if got, want := top.MaxLatency(), top.maxLatencyScan(); got != want {
			t.Errorf("%s: MaxLatency() = %d, scan = %d", file, got, want)
		}
	}
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
				if got, want := top.GetLatency(x, y), top.getLatencyWalk(x, y); got != want {
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

// maxLatencyBetweenWalk is the pre-index MaxLatencyBetween: O(k²) group-tree
// walks. Reference implementation for the property tests.
func (t *Topology) maxLatencyBetweenWalk(ctxs []int) int64 {
	var max int64
	for i := 0; i < len(ctxs); i++ {
		for j := i + 1; j < len(ctxs); j++ {
			if l := t.getLatencyWalk(ctxs[i], ctxs[j]); l > max {
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
	if !t.power.Available() {
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
			perSocket[s] = t.power.PerSocketBase
			if withDRAM {
				perSocket[s] += t.power.DRAM
			}
		}
	}
	for core, n := range ctxPerCore {
		perSocket[core.Socket.ID] += t.power.PerFirstCtx + float64(n-1)*t.power.PerExtraCtx
	}
	for _, p := range perSocket {
		total += p
	}
	return perSocket, total
}
