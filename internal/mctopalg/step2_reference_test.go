package mctopalg

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// clusterTableReference is step 2 as it was before it clustered a
// histogram: the table's off-diagonal values copied out and clustered by
// stats.Cluster.
func clusterTableReference(table Table) []stats.Triplet {
	return stats.Cluster(offDiagonal(table), clusterGaps)
}

// medianOfReference is the lookup as it was: one stats.Assign scan per
// value read.
func medianOfReference(clusters []stats.Triplet, v int64) int64 {
	i, _ := stats.Assign(clusters, v)
	return clusters[i].Median
}

// checkClusterTable holds clusterTable to the references on one table:
// the same clusters, and the same median for every off-diagonal value,
// for every cluster's median and for every value from one gap below the
// smallest to one gap past the largest.
func checkClusterTable(t *testing.T, name string, table Table) *lookup {
	t.Helper()
	lk := clusterTable(table)
	want := clusterTableReference(table)
	if !reflect.DeepEqual(lk.clusters, want) {
		t.Fatalf("%s: clusters %v, reference %v", name, lk.clusters, want)
	}
	read := func(v int64) {
		if got, ref := lk.medianOf(v), medianOfReference(want, v); got != ref {
			t.Fatalf("%s: medianOf(%d) = %d, reference %d", name, v, got, ref)
		}
	}
	for _, v := range offDiagonal(table) {
		read(v)
	}
	for _, c := range want {
		read(c.Median)
	}
	if len(lk.median) > 0 {
		for v := want[0].Min - clusterGaps.AbsGap; v <= want[len(want)-1].Max+clusterGaps.AbsGap; v++ {
			read(v)
		}
	}
	return lk
}

// TestClusterTableMatchesReference: step 2's histogram front end and its
// lookup give the clusters and medians of the copy-and-Cluster step 2 and
// the Assign-based lookup on every cell of the five golden tables, of
// generated ones (exhaustive, sampled, noisy; up to 1024 contexts), and of
// hand-built tables: one whose few values lie too far apart for a dense
// count, one counted densely far from zero.
func TestClusterTableMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		platform string
		sampled  bool
	}{
		{"Ivy", false}, {"Westmere", false}, {"Haswell", false}, {"Opteron", false}, {"SPARC", false},
		{"gen:ring:s6:c2:t2", false},
		{"gen:circulant:s16:c4:t2", false},
		{"gen:mesh:s16:c16:t2", true},
		{"gen:circulant:s64:c8:t2", true},
		{"gen:ring:s6:c2:t2:n1", false},
	} {
		p, err := sim.ByName(tc.platform)
		if err != nil {
			t.Fatal(err)
		}
		opt := testOptions()
		opt.Sampling = tc.sampled
		res := inferWith(t, p, 42, opt)
		if lk := checkClusterTable(t, tc.platform, res.RawTable); len(lk.median) == 0 {
			t.Fatalf("%s: step 2 did not count the table densely", tc.platform)
		}
	}

	for _, tc := range []struct {
		name  string
		lat   func(i, j int) int64
		dense bool
	}{
		{"three far levels", func(i, j int) int64 {
			switch {
			case i/2 == j/2:
				return 40
			case i < 4 && j < 4:
				return 90_000
			}
			return 5_000_000
		}, false},
		{"one level past 2^40", func(i, j int) int64 { return 1 << 40 }, true},
	} {
		table := handTable(8, tc.lat)
		if lk := checkClusterTable(t, tc.name, table); (len(lk.median) > 0) != tc.dense {
			t.Fatalf("%s: dense count over %d values, want dense %v", tc.name, len(lk.median), tc.dense)
		}
	}
}
