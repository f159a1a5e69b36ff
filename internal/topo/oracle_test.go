package topo_test

// Oracle tests for the latency queries of the query index: GetLatency,
// FoldArrivals, MaxLatencyBetween, ContextsByLatencyFrom, MaxLatency and
// Occupancy.MaxLatency must equal the pre-index references — the group-tree
// walk and the scans built on it — on the five golden platforms, on
// generated platforms inferred at low repetitions, and on hand-built specs
// with grouped levels between core and socket. The index changes cost,
// never results.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/sim"
	"repro/internal/topo"
)

type oracleTopology struct {
	name string
	top  *topo.Topology
}

// oracleTopologies are built once per test binary: inferring the generated
// platforms is most of the cost.
var oracleTopologies = sync.OnceValues(func() ([]oracleTopology, error) {
	var out []oracleTopology
	for _, file := range []string{"ivy.mctop", "westmere.mctop", "haswell.mctop", "opteron.mctop", "sparc.mctop"} {
		top, err := topo.LoadFile(filepath.Join("testdata", file))
		if err != nil {
			return nil, err
		}
		out = append(out, oracleTopology{file, top})
	}
	for _, platform := range []string{"gen:mesh:s4:c8:t2", "gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2"} {
		p, err := sim.ByName(platform)
		if err != nil {
			return nil, err
		}
		m, err := machine.NewSim(p, 1)
		if err != nil {
			return nil, err
		}
		res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{Reps: 21})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", platform, err)
		}
		out = append(out, oracleTopology{strings.ReplaceAll(platform, ":", "-"), res.Topology})
	}
	for _, s := range []struct {
		name                         string
		sockets, coresPerSocket, smt int
		groupCores                   []int
	}{
		{"groups-3-6", 3, 18, 2, []int{3, 6}}, // core, two group levels, socket
		{"groups-smt4", 2, 8, 4, []int{2}},
		{"groups-no-smt", 2, 12, 1, []int{4}}, // synthesized cores under a group level
		{"one-socket", 1, 6, 2, []int{3}},
	} {
		top, err := topo.FromSpec(topo.TreeSpec(s.name, s.sockets, s.coresPerSocket, s.smt, s.groupCores))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, oracleTopology{s.name, top})
	}
	return out, nil
})

func forEachOracleTopology(t *testing.T, f func(t *testing.T, top *topo.Topology)) {
	t.Helper()
	tops, err := oracleTopologies()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tops {
		t.Run(o.name, func(t *testing.T) { f(t, o.top) })
	}
}

// idLists are candidate lists over ids in [-3, n+3): the full machine, one
// with every kind of unknown id and repeats, and random ones.
func idLists(rng *rand.Rand, n int) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	lists := [][]int{nil, all, {-1, 0, n, n - 1, -7, n + 2, 0, n - 1, -1}}
	for trial := 0; trial < 20; trial++ {
		l := make([]int, 1+rng.Intn(2*n))
		for i := range l {
			l[i] = rng.Intn(n+6) - 3
		}
		lists = append(lists, l)
	}
	return lists
}

func TestIndexGetLatencyMatchesWalk(t *testing.T) {
	forEachOracleTopology(t, func(t *testing.T, top *topo.Topology) {
		n := top.NumHWContexts()
		for x := -2; x < n+2; x++ {
			for y := -2; y < n+2; y++ {
				if got, want := top.GetLatency(x, y), top.GetLatencyWalk(x, y); got != want {
					t.Fatalf("GetLatency(%d, %d) = %d, walk = %d", x, y, got, want)
				}
			}
		}
	})
}

// TestLatenciesFromMatchesGetLatency: the latencies FoldArrivals charges
// from one context equal the walk element by element, for every source id,
// unknown ones included, over candidate lists with unknown and repeated
// ids. A fold of one cache line sent at time 0 onto starts of MinInt64
// leaves exactly the latencies; a fold at a random time and volume onto
// random starts keeps the later of each start and arrival, and answers the
// lowest index of the earliest start.
func TestLatenciesFromMatchesGetLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	forEachOracleTopology(t, func(t *testing.T, top *topo.Topology) {
		n := top.NumHWContexts()
		lists := idLists(rng, n)
		for x := -2; x < n+2; x++ {
			for _, ctxs := range lists {
				start := make([]int64, len(ctxs))
				for i := range start {
					start[i] = math.MinInt64
				}
				top.FoldArrivals(x, 0, 1, ctxs, start)
				for i, c := range ctxs {
					if got, want := start[i], top.GetLatencyWalk(x, c); got != want {
						t.Fatalf("FoldArrivals(%d) latency [%d] (ctx %d) = %d, walk = %d", x, i, c, got, want)
					}
				}
				at, lines := rng.Int63n(1000), rng.Int63n(20)
				want := make([]int64, len(ctxs))
				best := 0
				for i, c := range ctxs {
					start[i] = rng.Int63n(3000)
					want[i] = max(start[i], at+lines*top.GetLatencyWalk(x, c))
					if want[i] < want[best] {
						best = i
					}
				}
				if got := top.FoldArrivals(x, at, lines, ctxs, start); got != best || !reflect.DeepEqual(start, want) {
					t.Fatalf("FoldArrivals(%d, %d, %d, %v) = %d, %v; want %d, %v", x, at, lines, ctxs, got, start, best, want)
				}
			}
		}
		// x unknown and equal to an unknown candidate: the diagonal is 0, as
		// for GetLatency.
		start := []int64{math.MinInt64, math.MinInt64}
		if best := top.FoldArrivals(n+3, 0, 1, []int{n + 3, 0}, start); start[0] != 0 || start[1] != -1 || best != 1 {
			t.Errorf("FoldArrivals(n+3, {n+3, 0}) = %d, %v; want 1, [0 -1]", best, start)
		}
	})
}

// TestIndexMaxLatencyBetweenMatchesWalk covers both of MaxLatencyBetween's
// paths (≤ 8 ids, pairwise; more, by socket) and Occupancy.MaxLatency over
// sets with duplicates and unknown ids, and MaxLatency against its scan.
func TestIndexMaxLatencyBetweenMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	forEachOracleTopology(t, func(t *testing.T, top *topo.Topology) {
		n := top.NumHWContexts()
		sets := idLists(rng, n)
		for trial := 0; trial < 60; trial++ {
			k := 1 + rng.Intn(8)
			if trial%2 == 1 {
				k = 9 + rng.Intn(2*n)
			}
			ctxs := make([]int, k)
			for i := range ctxs {
				ctxs[i] = rng.Intn(n)
			}
			if trial%3 == 0 {
				ctxs = append(ctxs, -1, ctxs[0]) // unknown ids never contribute
			}
			sets = append(sets, ctxs)
		}
		for _, ctxs := range sets {
			want := top.MaxLatencyBetweenWalk(ctxs)
			if got := top.MaxLatencyBetween(ctxs); got != want {
				t.Fatalf("MaxLatencyBetween(%v) = %d, walk = %d", ctxs, got, want)
			}
			if got := top.Occupancy(ctxs).MaxLatency(); got != want {
				t.Fatalf("Occupancy(%v).MaxLatency() = %d, walk = %d", ctxs, got, want)
			}
		}
		if got, want := top.MaxLatency(), top.MaxLatencyScan(); got != want {
			t.Errorf("MaxLatency() = %d, scan = %d", got, want)
		}
	})
}

func TestContextsByLatencyFromMatchesWalk(t *testing.T) {
	forEachOracleTopology(t, func(t *testing.T, top *topo.Topology) {
		n := top.NumHWContexts()
		for _, ctx := range []int{-1, 0, 1, n / 3, n / 2, n - 1, n, n + 5} {
			if got, want := top.ContextsByLatencyFrom(ctx), contextsByLatencyWalk(top, ctx); !reflect.DeepEqual(got, want) {
				t.Fatalf("ContextsByLatencyFrom(%d) = %v\nwalk order %v", ctx, got, want)
			}
		}
	})
}

// contextsByLatencyWalk is the reference order: every other context by
// walked latency from ctx, ties by id.
func contextsByLatencyWalk(top *topo.Topology, ctx int) []int {
	var ids []int
	for id := 0; id < top.NumHWContexts(); id++ {
		if id != ctx {
			ids = append(ids, id)
		}
	}
	sort.SliceStable(ids, func(i, j int) bool {
		return top.GetLatencyWalk(ctx, ids[i]) < top.GetLatencyWalk(ctx, ids[j])
	})
	return ids
}
