package mctopalg

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// normalizeReference is the normalized latency table of Figure 6 (2b) as
// step 2 used to build it: every off-diagonal value replaced by the median
// of its stats.Assign cluster, the diagonal zero. Steps 3 and 4 now read the
// raw table through the clusters instead; TestComponentsReadThroughClusters
// holds them to what they made of this table.
func normalizeReference(table [][]int64, clusters []stats.Triplet) [][]int64 {
	out := make([][]int64, len(table))
	for i, row := range table {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			if i == j {
				out[i][j] = 0
				continue
			}
			idx, ok := stats.Assign(clusters, v)
			if !ok {
				out[i][j] = v
				continue
			}
			out[i][j] = clusters[idx].Median
		}
	}
	return out
}

// offDiagonal returns a table's values above the diagonal, step 2's input.
func offDiagonal(table [][]int64) []int64 {
	var vals []int64
	for i, row := range table {
		vals = append(vals, row[i+1:]...)
	}
	return vals
}

// handTable builds a symmetric table over n contexts whose off-diagonal
// entries are lat(i, j) plus a jitter of -1..+1, so that the raw values
// differ from their cluster medians.
func handTable(n int, lat func(i, j int) int64) [][]int64 {
	table := make([][]int64, n)
	for i := range table {
		table[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := lat(i, j) + int64((i+j)%3) - 1
			table[i][j], table[j][i] = v, v
		}
	}
	return table
}

// TestComponentsReadThroughClusters: step 3 fed the raw table finds the
// same levels, socket groups and socket table as fed the normalized one,
// on the golden platforms and on generated ones (noise-free, sampled, and
// with the goldens' noise model). Its socket groups come back ordered by
// their first context, the order step 4 takes as the socket ids. The
// tables step 3 rejected reading the normalized table, it rejects with the
// same error reading the raw one: unequal group sizes, an incomplete group,
// and non-uniform external latency (Section 3.6).
func TestComponentsReadThroughClusters(t *testing.T) {
	for _, tc := range []struct {
		platform string
		sampled  bool
	}{
		{"Ivy", false}, {"Westmere", false}, {"Haswell", false}, {"Opteron", false}, {"SPARC", false},
		{"gen:ring:s6:c2:t2", false},
		{"gen:circulant:s16:c4:t2", false},
		{"gen:mesh:s16:c16:t2", true},
		{"gen:ring:s6:c2:t2:n1", false},
	} {
		tc := tc
		t.Run(tc.platform, func(t *testing.T) {
			t.Parallel()
			p, err := sim.ByName(tc.platform)
			if err != nil {
				t.Fatal(err)
			}
			opt := testOptions()
			opt.Sampling = tc.sampled
			res := inferWith(t, p, 42, opt)
			if res.Sampled != tc.sampled {
				t.Fatalf("Sampled = %v, want %v", res.Sampled, tc.sampled)
			}
			n, nodes := len(res.RawTable), p.NumNodes()
			levels, sockGroups, sockTable, err := buildComponents(res.RawTable, clusterTable(res.RawTable), n, nodes)
			if err != nil {
				t.Fatal(err)
			}
			norm := normalizeReference(res.RawTable, res.Clusters)
			wantLevels, wantGroups, wantTable, err := buildComponents(norm, &lookup{clusters: res.Clusters}, n, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(levels, wantLevels) || !reflect.DeepEqual(levels, res.LevelGroups) {
				t.Fatal("levels differ between the raw and the normalized table")
			}
			if !reflect.DeepEqual(sockGroups, wantGroups) {
				t.Fatalf("socket groups differ: raw %v, normalized %v", sockGroups, wantGroups)
			}
			if !reflect.DeepEqual(sockTable, wantTable) {
				t.Fatalf("socket tables differ: raw %v, normalized %v", sockTable, wantTable)
			}
			for li, groups := range levels {
				for g := 1; g < len(groups); g++ {
					if groups[g-1][0] >= groups[g][0] {
						t.Fatalf("level %d: group %d starts at context %d, group %d at %d",
							li, g-1, groups[g-1][0], g, groups[g][0])
					}
				}
			}
		})
	}

	in := func(set []int, i, j int) bool {
		a, b := false, false
		for _, c := range set {
			a, b = a || c == i, b || c == j
		}
		return a && b
	}
	for _, tc := range []struct {
		name     string
		n, nodes int
		lat      func(i, j int) int64
		want     string
	}{
		{"unequal group sizes", 6, 1, func(i, j int) int64 {
			if in([]int{0, 1}, i, j) || in([]int{2, 3, 4}, i, j) {
				return 28
			}
			return 112
		}, "produces groups of size 2 and 3"},
		{"incomplete group", 6, 2, func(i, j int) int64 {
			if (i == 0 && j == 1) || (i == 1 && j == 2) || in([]int{3, 4, 5}, i, j) {
				return 28
			}
			return 112
		}, "but communicate at"},
		{"non-uniform external latency", 4, 1, func(i, j int) int64 {
			switch {
			case in([]int{0, 1}, i, j) || in([]int{2, 3}, i, j):
				return 28
			case i == 1 && j == 3:
				return 308
			}
			return 112
		}, "non-uniform external latency"},
	} {
		tc := tc
		t.Run("rejects "+tc.name, func(t *testing.T) {
			table := handTable(tc.n, tc.lat)
			lk := clusterTable(table)
			_, _, _, err := buildComponents(table, lk, tc.n, tc.nodes)
			_, _, _, want := buildComponents(normalizeReference(table, lk.clusters), &lookup{clusters: lk.clusters}, tc.n, tc.nodes)
			if err == nil || want == nil {
				t.Fatalf("errors %v (raw) and %v (normalized), want both to fail", err, want)
			}
			if !errors.Is(err, ErrClustering) || err.Error() != want.Error() {
				t.Fatalf("raw table fails with %q, normalized with %q", err, want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the rule (%q)", err, tc.want)
			}
		})
	}
}

// TestMedianOfIdempotent: reading a value through the clusters gives the
// normalized table's entry, a cluster median, and reading that median gives
// it back — which is why every reduced table reads like the raw one.
func TestMedianOfIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 6
		table := handTable(n, func(i, j int) int64 {
			base := int64(100)
			if (i < n/2) != (j < n/2) {
				base = 300
			}
			return base + rng.Int63n(11) - 5
		})
		lk := clusterTable(table)
		norm := normalizeReference(table, lk.clusters)
		medians := map[int64]bool{}
		for _, c := range lk.clusters {
			medians[c.Median] = true
		}
		for i := range table {
			for j := range table[i] {
				if i == j {
					continue
				}
				m := lk.medianOf(table[i][j])
				if m != norm[i][j] || !medians[m] || lk.medianOf(m) != m {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// denseTables runs an inference of the named platform and returns what it
// allocated, in dense n×n tables of int64. Tests calling it must not be
// parallel, so that no other test's allocations land in the process-wide
// counter.
func denseTables(t *testing.T, name string, opt Options) (float64, *Result) {
	t.Helper()
	p, err := sim.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewSim(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumContexts()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := InferContext(context.Background(), m, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	table := float64(8 * n * n)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%s: %.2f MB allocated, %.2f dense tables of %.2f MB, %d objects",
		name, got/1e6, got/table, table/1e6, after.Mallocs-before.Mallocs)
	return got / table, res
}

// TestInferAllocatesOneDenseTable bounds what an inference allocates at
// 2048 contexts by two dense n×n tables of int64: the raw table is the one
// it keeps, and nothing else is of its order — the pairs are measured on
// one fork per worker and written into the table in place, step 2 counts
// the values instead of copying them, and the sampled mode walks its
// class-pair blocks instead of listing them. The run allocates about 1.4
// tables' worth; with a fork, an outcome and a list slot per pair, a copy
// of the values for step 2 and every block listed it came to 3.8.
func TestInferAllocatesOneDenseTable(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-context inference in -short mode")
	}
	tables, res := denseTables(t, "gen:mesh:s64:c16:t2", Options{Reps: 51, Parallelism: 1, Sampling: true})
	if !res.Sampled {
		t.Fatal("the 2048-context inference did not take the sampled path")
	}
	if tables >= 2 {
		t.Fatalf("inference allocated %.2f dense tables; the bound is 2", tables)
	}
}

// TestExhaustiveInferAllocatesOneDenseTable is the same bound on the
// exhaustive path, where every pair is measured: SPARC, 32640 pairs on one
// worker. It allocated 15 tables' worth with a fork per pair.
func TestExhaustiveInferAllocatesOneDenseTable(t *testing.T) {
	if tables, _ := denseTables(t, "SPARC", Options{Reps: 51, Parallelism: 1}); tables >= 2 {
		t.Fatalf("inference allocated %.2f dense tables; the bound is 2", tables)
	}
}

// TestPairAt: pairAt enumerates the pairs of the canonical (x, y) order.
func TestPairAt(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 40, 256, 1000} {
		i := 0
		for x := 0; x < n-1; x++ {
			for y := x + 1; y < n; y++ {
				if gx, gy := pairAt(n, i); gx != x || gy != y {
					t.Fatalf("pairAt(%d, %d) = (%d, %d), want (%d, %d)", n, i, gx, gy, x, y)
				}
				i++
			}
		}
	}
	const n = 1 << 20 // the generator's context cap
	last := n*(n-1)/2 - 1
	for _, i := range []int{0, 1, n - 2, n - 1, last / 2, last - 1, last} {
		x, y := pairAt(n, i)
		if x < 0 || y <= x || y >= n || x*n-x*(x+1)/2+(y-x-1) != i {
			t.Fatalf("pairAt(%d, %d) = (%d, %d)", n, i, x, y)
		}
	}
}
