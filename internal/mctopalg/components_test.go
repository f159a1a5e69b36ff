package mctopalg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
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

// offDiagonal returns a table's values above the diagonal in row-major
// order, step 2's input.
func offDiagonal(table Table) []int64 {
	var vals []int64
	for i := 0; i < table.N(); i++ {
		for j := i + 1; j < table.N(); j++ {
			vals = append(vals, table.At(i, j))
		}
	}
	return vals
}

// dense returns a table as the n×n matrix the reference steps read.
func dense(table Table) [][]int64 {
	out := make([][]int64, table.N())
	for i := range out {
		out[i] = make([]int64, table.N())
		for j := range out[i] {
			out[i][j] = table.At(i, j)
		}
	}
	return out
}

// handTable builds a table over n contexts whose entries are lat(i, j)
// plus a jitter of -1..+1, so that the raw values differ from their
// cluster medians.
func handTable(n int, lat func(i, j int) int64) Table {
	table := Table{n: n, v: make([]int64, n*(n-1)/2)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			table.v[table.slot(i, j)] = lat(i, j) + int64((i+j)%3) - 1
		}
	}
	return table
}

// checkStep3 holds step 3 on a raw table, and step 4's socket matrix, to
// the reference step 3 on the same table: the same levels and socket
// groups, and a socket matrix that is the reference's last reduced table
// with the socket level's median on its diagonal — or the same
// ErrClustering text.
func checkStep3(t *testing.T, name string, raw Table, nodes int) (levels [][][]int, socketLat [][]int64, err error) {
	t.Helper()
	n, lk := raw.N(), clusterTable(raw)
	levels, err = buildComponents(raw, lk, n, nodes)
	wantLevels, wantGroups, wantTable, wantErr := buildComponentsReference(dense(raw), lk, n, nodes)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrClustering) {
			t.Fatalf("%s: step 3 fails with %v, the reference with %v", name, err, wantErr)
		}
		return nil, nil, err
	}
	if !reflect.DeepEqual(levels, wantLevels) {
		t.Fatalf("%s: levels %v, reference %v", name, levels, wantLevels)
	}
	sockGroups := levels[len(levels)-1]
	if !reflect.DeepEqual(sockGroups, wantGroups) {
		t.Fatalf("%s: socket groups %v, reference %v", name, sockGroups, wantGroups)
	}
	intra := lk.clusters[len(levels)-1].Median
	socketLat = socketLatencies(raw, lk, sockGroups, intra)
	for i := range wantTable {
		wantTable[i][i] = intra
	}
	if !reflect.DeepEqual(socketLat, wantTable) {
		t.Fatalf("%s: socket matrix %v, reference %v", name, socketLat, wantTable)
	}
	return levels, socketLat, nil
}

// TestComponentsReadThroughClusters: step 3 fed the raw table finds the
// same levels and socket groups as the reference step 3 fed the raw table
// and fed the normalized one, and step 4's socket matrix is their last
// reduced table; on the golden platforms and on generated ones
// (noise-free, sampled, and with the goldens' noise model). Its socket
// groups come back ordered by their first context, the order step 4 takes
// as the socket ids. The tables the reference rejected reading the
// normalized table, step 3 rejects with the same error reading the raw
// one: unequal group sizes, an incomplete group, and non-uniform external
// latency (Section 3.6).
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
			n, nodes := res.RawTable.N(), p.NumNodes()
			levels, socketLat, err := checkStep3(t, tc.platform, res.RawTable, nodes)
			if err != nil {
				t.Fatal(err)
			}
			norm := normalizeReference(dense(res.RawTable), res.Clusters)
			wantLevels, wantGroups, wantTable, err := buildComponentsReference(norm, &lookup{clusters: res.Clusters}, n, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(levels, wantLevels) || !reflect.DeepEqual(levels, res.LevelGroups) {
				t.Fatal("levels differ between the raw and the normalized table")
			}
			if sockGroups := levels[len(levels)-1]; !reflect.DeepEqual(sockGroups, wantGroups) {
				t.Fatalf("socket groups differ: raw %v, normalized %v", sockGroups, wantGroups)
			}
			for i := range wantTable {
				wantTable[i][i] = socketLat[i][i]
			}
			if !reflect.DeepEqual(socketLat, wantTable) {
				t.Fatalf("socket tables differ: raw %v, normalized %v", socketLat, wantTable)
			}
			if spec := res.Topology.Spec(); !reflect.DeepEqual(spec.SocketLat, socketLat) {
				t.Fatalf("step 4's socket matrix %v, step 3's %v", spec.SocketLat, socketLat)
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
			_, _, err := checkStep3(t, tc.name, table, tc.nodes)
			_, _, _, want := buildComponentsReference(normalizeReference(dense(table), lk.clusters), &lookup{clusters: lk.clusters}, tc.n, tc.nodes)
			if err == nil || want == nil {
				t.Fatalf("errors %v (raw) and %v (normalized), want both to fail", err, want)
			}
			if err.Error() != want.Error() {
				t.Fatalf("raw table fails with %q, normalized with %q", err, want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the rule (%q)", err, tc.want)
			}
		})
	}
}

// randomMachineTable draws the raw table of a random machine: S sockets
// on a ring of C cores of T contexts each, its contexts numbered in a
// random order, every pair at the latency of the level the two share plus
// a jitter of -1..+1. In half the draws a few pairs are then set to
// another level's latency, which step 3 mostly rejects.
func randomMachineTable(rng *rand.Rand) (raw Table, nodes int) {
	S, C, T := 1+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(3)
	n := max(S*C*T, 2)
	perm := rng.Perm(n)
	raw = Table{n: n, v: make([]int64, n*(n-1)/2)}
	lat := func(a, b int) int64 {
		switch sa, sb := a/(C*T), b/(C*T); {
		case a/T == b/T:
			return 28
		case sa == sb:
			return 112
		default:
			d := max(sa, sb) - min(sa, sb)
			return 300 + 120*int64(min(d, S-d)-1)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			x, y := perm[a], perm[b]
			raw.v[raw.slot(min(x, y), max(x, y))] = lat(a, b) + rng.Int63n(3) - 1
		}
	}
	if rng.Intn(2) == 0 {
		levels := []int64{28, 112, 300, 420}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			raw.v[rng.Intn(len(raw.v))] = levels[rng.Intn(len(levels))]
		}
	}
	return raw, max(S, 1)
}

// TestStep3MatchesReference: on seeded random machine tables, step 3 and
// step 4's socket matrix agree with the reference step 3 (checkStep3), and
// one grouping level fed a random partition whose parts need not be
// uniform agrees with the reference level fed the reduced table of that
// partition's smallest contexts — the table a reference level is handed.
func TestStep3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	accepted, rejected := 0, 0
	for draw := 0; draw < 2000; draw++ {
		raw, nodes := randomMachineTable(rng)
		name := fmt.Sprintf("draw %d", draw)
		if _, _, err := checkStep3(t, name, raw, nodes); err != nil {
			rejected++
		} else {
			accepted++
		}

		// A random partition into parts numbered by smallest context.
		n, lk := raw.N(), clusterTable(raw)
		var parts [][]int
		for _, x := range rng.Perm(n) {
			if k := rng.Intn(len(parts) + 1); k < len(parts) {
				parts[k] = append(parts[k], x)
			} else {
				parts = append(parts, []int{x})
			}
		}
		for _, part := range parts {
			sort.Ints(part)
		}
		slices.SortFunc(parts, func(a, b []int) int { return a[0] - b[0] })
		reduced := make([][]int64, len(parts))
		for i := range parts {
			reduced[i] = make([]int64, len(parts))
			for j := range parts {
				if i != j {
					reduced[i][j] = lk.medianOf(raw.At(parts[i][0], parts[j][0]))
				}
			}
		}
		lat := lk.clusters[rng.Intn(len(lk.clusters))].Median
		got, err := groupAtLatency(parts, raw, lk, lat)
		want, _, wantErr := groupAtLatencyReference(parts, reduced, lk, lat)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, parts %v at %d: %v, %v; reference %v, %v", name, parts, lat, got, err, want, wantErr)
		}
	}
	t.Logf("%d tables accepted, %d rejected", accepted, rejected)
	if accepted < 100 || rejected < 100 {
		t.Fatalf("%d tables accepted, %d rejected: the draws do not reach both outcomes", accepted, rejected)
	}
}

// TestMedianOfIdempotent: reading a value through the clusters gives the
// normalized table's entry, a cluster median, and reading that median gives
// it back — which is why a reference step 3's reduced tables of medians
// read like the raw table.
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
		norm := normalizeReference(dense(table), lk.clusters)
		medians := map[int64]bool{}
		for _, c := range lk.clusters {
			medians[c.Median] = true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				m := lk.medianOf(table.At(i, j))
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
// 2048 contexts by one dense n×n table of int64: the raw table, which
// stores each pair once (half a dense table), is the one it keeps, and
// nothing else is of its order — the pairs are measured on one fork per
// worker and written into the table in place, step 2 counts the values
// instead of copying them, step 3 builds no reduced tables, and the
// sampled mode walks its class-pair blocks instead of listing them. The
// run allocates about 0.65 tables' worth; with every pair stored twice and
// a reduced table per grouping level it came to 1.4, and with a fork, an
// outcome and a list slot per pair, a copy of the values for step 2 and
// every block listed to 3.8.
func TestInferAllocatesOneDenseTable(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-context inference in -short mode")
	}
	tables, res := denseTables(t, "gen:mesh:s64:c16:t2", Options{Reps: 51, Parallelism: 1, Sampling: true})
	if !res.Sampled {
		t.Fatal("the 2048-context inference did not take the sampled path")
	}
	if tables >= 1 {
		t.Fatalf("inference allocated %.2f dense tables; the bound is 1", tables)
	}
}

// TestExhaustiveInferAllocatesOneDenseTable is the same bound on the
// exhaustive path, where every pair is measured: SPARC, 32640 pairs on one
// worker. It allocates about 0.63 tables' worth; it allocated 1.16 with
// every pair stored twice and 15 with a fork per pair.
func TestExhaustiveInferAllocatesOneDenseTable(t *testing.T) {
	if tables, _ := denseTables(t, "SPARC", Options{Reps: 51, Parallelism: 1}); tables >= 1 {
		t.Fatalf("inference allocated %.2f dense tables; the bound is 1", tables)
	}
}

// TestPairAt: pairAt enumerates the pairs of the canonical (x, y) order,
// which is a Table's storage order: slot i holds pair pairAt(n, i), every
// pair reads the same both ways round and the diagonal reads 0.
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
	checkTable := func(n int) {
		table := Table{n: n, v: make([]int64, n*(n-1)/2)}
		for i := range table.v {
			table.v[i] = int64(i) + 1
		}
		for i := range table.v {
			if x, y := pairAt(n, i); table.slot(x, y) != i || table.At(x, y) != int64(i)+1 {
				t.Fatalf("n=%d: pair %d = (%d, %d) is stored in slot %d", n, i, x, y, table.slot(x, y))
			}
		}
		for x := 0; x < n; x++ {
			if v := table.At(x, x); v != 0 {
				t.Fatalf("n=%d: At(%d, %d) = %d", n, x, x, v)
			}
			for y := x + 1; y < n; y++ {
				if table.At(x, y) != table.At(y, x) {
					t.Fatalf("n=%d: At(%d, %d) = %d, At(%d, %d) = %d", n, x, y, table.At(x, y), y, x, table.At(y, x))
				}
			}
		}
	}
	for n := 2; n <= 300; n++ {
		checkTable(n)
	}
	checkTable(2048)
	for _, n := range []int{1 << 14, 1 << 20} { // 1<<20 is the generator's context cap
		table := Table{n: n}
		last := n*(n-1)/2 - 1
		for _, i := range []int{0, 1, n - 2, n - 1, last / 2, last - 1, last} {
			x, y := pairAt(n, i)
			if x < 0 || y <= x || y >= n || table.slot(x, y) != i {
				t.Fatalf("pairAt(%d, %d) = (%d, %d), stored in slot %d", n, i, x, y, table.slot(x, y))
			}
		}
	}
}
