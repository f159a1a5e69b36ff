package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{1, 2, 3}, 2},
		{[]int64{3, 1, 2}, 2},
		{[]int64{1, 2, 3, 4}, 2},
		{[]int64{4, 4, 4, 4}, 4},
		{[]int64{10, 0}, 5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []int64{9, 1, 5}
	Median(in)
	if !reflect.DeepEqual(in, []int64{9, 1, 5}) {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Median of empty slice did not panic")
		}
	}()
	Median(nil)
}

// Mean and Stdev are the two-pass mean and population standard deviation
// that MedianStdevInPlace's stdev is checked against bit for bit.
func Mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// Stdev returns the population standard deviation of xs.
func Stdev(xs []int64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := float64(x) - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func TestMeanStdev(t *testing.T) {
	xs := []int64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Stdev(xs); got != 2 {
		t.Errorf("Stdev = %v, want 2", got)
	}
	if got := Stdev([]int64{42}); got != 0 {
		t.Errorf("Stdev single = %v, want 0", got)
	}
}

// coarseGaps is a wide relative gap (MCTOP-ALG itself passes 0.04): these
// tests' levels sit 3x apart with up to 20 % jitter inside a level.
var coarseGaps = ClusterOptions{RelGap: 0.25, AbsGap: 10}

func TestClusterIvyLevels(t *testing.T) {
	var xs []int64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		xs = append(xs, 28+rng.Int63n(3)-1) // 27..29
	}
	for i := 0; i < 400; i++ {
		xs = append(xs, 112+rng.Int63n(41)-20) // 92..132
	}
	for i := 0; i < 400; i++ {
		xs = append(xs, 308+rng.Int63n(41)-20) // 288..328
	}
	cl := Cluster(xs, coarseGaps)
	if len(cl) != 3 {
		t.Fatalf("got %d clusters (%v), want 3", len(cl), cl)
	}
	if cl[0].Median < 27 || cl[0].Median > 29 {
		t.Errorf("SMT cluster median = %d", cl[0].Median)
	}
	if cl[1].Median < 100 || cl[1].Median > 124 {
		t.Errorf("intra-socket cluster median = %d", cl[1].Median)
	}
	if cl[2].Median < 296 || cl[2].Median > 320 {
		t.Errorf("cross-socket cluster median = %d", cl[2].Median)
	}
}

func TestClusterSingleValue(t *testing.T) {
	cl := Cluster([]int64{100, 100, 100}, coarseGaps)
	if len(cl) != 1 || cl[0].Median != 100 || cl[0].Min != 100 || cl[0].Max != 100 {
		t.Errorf("Cluster = %v", cl)
	}
}

// Property: clustering yields a partition — every input value is contained
// in exactly one cluster interval, clusters are ordered and non-overlapping.
func TestClusterPartitionProperty(t *testing.T) {
	f := func(seed int64, nLevels uint8, perLevel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := int(nLevels%4) + 1
		per := int(perLevel%20) + 5
		var xs []int64
		base := int64(20)
		for l := 0; l < levels; l++ {
			for i := 0; i < per; i++ {
				xs = append(xs, base+rng.Int63n(base/10+1))
			}
			base *= 3
		}
		cl := Cluster(xs, coarseGaps)
		// Ordered, non-overlapping.
		for i := 1; i < len(cl); i++ {
			if cl[i].Min <= cl[i-1].Max {
				return false
			}
		}
		// Every value in exactly one interval.
		for _, v := range xs {
			count := 0
			for _, c := range cl {
				if c.Contains(v) {
					count++
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent and only emits cluster medians (or
// zero on the diagonal).
func TestNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		table := make([][]int64, n)
		var all []int64
		for i := range table {
			table[i] = make([]int64, n)
			for j := range table[i] {
				if i == j {
					continue
				}
				base := int64(100)
				if (i < n/2) != (j < n/2) {
					base = 300
				}
				v := base + rng.Int63n(11) - 5
				table[i][j] = v
				all = append(all, v)
			}
		}
		cl := Cluster(all, coarseGaps)
		norm := Normalize(table, cl)
		norm2 := Normalize(norm, cl)
		if !reflect.DeepEqual(norm, norm2) {
			return false
		}
		medians := map[int64]bool{0: true}
		for _, c := range cl {
			medians[c.Median] = true
		}
		for i := range norm {
			for j := range norm[i] {
				if !medians[norm[i][j]] {
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

func TestAssign(t *testing.T) {
	cl := []Triplet{{25, 28, 31}, {90, 112, 140}, {290, 308, 330}}
	if idx, ok := Assign(cl, 28); !ok || idx != 0 {
		t.Errorf("Assign(28) = %d,%v", idx, ok)
	}
	if idx, ok := Assign(cl, 139); !ok || idx != 1 {
		t.Errorf("Assign(139) = %d,%v", idx, ok)
	}
	// Outside all intervals: nearest median.
	if idx, ok := Assign(cl, 200); !ok || idx != 1 {
		t.Errorf("Assign(200) = %d,%v, want 1", idx, ok)
	}
	if idx, ok := Assign(cl, 1000); !ok || idx != 2 {
		t.Errorf("Assign(1000) = %d,%v, want 2", idx, ok)
	}
	if _, ok := Assign(nil, 5); ok {
		t.Error("Assign on empty clusters should return ok=false")
	}
}

func TestNormalizePreservesDiagonal(t *testing.T) {
	table := [][]int64{{0, 100}, {100, 0}}
	cl := Cluster([]int64{100, 100}, coarseGaps)
	norm := Normalize(table, cl)
	if norm[0][0] != 0 || norm[1][1] != 0 {
		t.Errorf("diagonal not preserved: %v", norm)
	}
	if norm[0][1] != 100 || norm[1][0] != 100 {
		t.Errorf("off-diagonal wrong: %v", norm)
	}
}

func TestClusterSortedInput(t *testing.T) {
	xs := []int64{500, 20, 21, 480, 19, 510}
	cl := Cluster(xs, coarseGaps)
	if len(cl) != 2 {
		t.Fatalf("want 2 clusters, got %v", cl)
	}
	if !sort.SliceIsSorted(cl, func(i, j int) bool { return cl[i].Median < cl[j].Median }) {
		t.Errorf("clusters not sorted: %v", cl)
	}
}

// TestMedianInPlaceMatchesSort: the selection median is the sort-based
// Median on every input shape the measurement loop produces and on the
// shapes that break naive quickselects.
func TestMedianInPlaceMatchesSort(t *testing.T) {
	check := func(name string, xs []int64) {
		t.Helper()
		want := Median(xs)
		got := MedianInPlace(append([]int64(nil), xs...))
		if got != want {
			t.Fatalf("%s (len %d): MedianInPlace = %d, Median = %d", name, len(xs), got, want)
		}
	}
	check("one", []int64{7})
	check("two", []int64{9, 2})
	check("two equal", []int64{4, 4})
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 260; n++ {
		sorted := make([]int64, n)
		reversed := make([]int64, n)
		random := make([]int64, n)
		dups := make([]int64, n)
		spiky := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(3 * i)
			reversed[i] = int64(3 * (n - i))
			random[i] = rng.Int63n(1<<40) - 1<<39
			dups[i] = 110 + rng.Int63n(5) // NoiseAmp 2: five distinct values
			spiky[i] = dups[i]
			if rng.Intn(50) == 0 {
				spiky[i] += 1800 // a spurious sample
			}
		}
		check("sorted", sorted)
		check("reversed", reversed)
		check("random", random)
		check("duplicates", dups)
		check("spiky", spiky)
		check("constant", make([]int64, n))
	}
}

func TestMedianInPlacePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MedianInPlace of empty slice did not panic")
		}
	}()
	MedianInPlace(nil)
}

// TestMedianStdevInPlace checks the counting median against the sort-based
// Median, and its stdev against Stdev bit for bit, on the rounds the
// measurement loop produces and on the window's edges: samples exactly at
// min+63 (the last counted value) and min+64 (the first one past it), and
// rounds with exactly half or fewer of their samples in the window, which
// must fall back to selection. A round answered from the counts is left in
// its sample order, which is how the test knows which path answered it.
func TestMedianStdevInPlace(t *testing.T) {
	check := func(name string, xs []int64, counted bool) {
		t.Helper()
		for _, withStdev := range []bool{false, true} {
			buf := append([]int64(nil), xs...)
			med, sd := MedianStdevInPlace(buf, withStdev)
			if want := Median(xs); med != want {
				t.Fatalf("%s (len %d): median = %d, Median = %d", name, len(xs), med, want)
			}
			if want := Stdev(xs); withStdev && sd != want {
				t.Fatalf("%s (len %d): stdev = %v, Stdev = %v", name, len(xs), sd, want)
			}
			if !withStdev && sd != 0 {
				t.Fatalf("%s (len %d): stdev %v computed though not asked for", name, len(xs), sd)
			}
			if counted && !reflect.DeepEqual(buf, xs) {
				t.Fatalf("%s (len %d): reordered, so not answered from the counts", name, len(xs))
			}
			if got := MedianInPlace(append([]int64(nil), xs...)); got != med {
				t.Fatalf("%s (len %d): MedianInPlace = %d, MedianStdevInPlace = %d", name, len(xs), got, med)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 201, 202} {
		round := make([]int64, n) // NoiseAmp 2 jitter over a latency, plus spikes
		equal := make([]int64, n)
		twoValued := make([]int64, n)
		negative := make([]int64, n)
		for i := range round {
			round[i] = 330 + rng.Int63n(5)
			if rng.Intn(40) == 0 {
				round[i] += 1800
			}
			equal[i] = 112
			twoValued[i] = 28 + 40*int64(i%2)
			negative[i] = -1000 - rng.Int63n(30)
		}
		check("round", round, true)
		check("equal", equal, true)
		check("two-valued", twoValued, true)
		check("negative", negative, true)

		// Half the round (rounded down) sits at the minimum and the rest,
		// the upper middle sample included, at the window's last value or
		// just past it.
		for _, far := range []int64{63, 64} {
			edge := make([]int64, n)
			for i := range edge {
				edge[i] = -7
				if i >= n/2 {
					edge[i] += far
				}
			}
			check(fmt.Sprintf("edge min+%d", far), edge, far == 63 || n == 1)
		}
		// Fewer than half the samples in the window: selection answers.
		sparse := make([]int64, n)
		for i := range sparse {
			sparse[i] = 500 + 100*int64(i)
		}
		check("sparse", sparse, n == 1)
		if n >= 3 {
			half := make([]int64, n) // exactly n/2 samples counted
			for i := range half {
				half[i] = 10
				if i >= n/2 {
					half[i] = 1000 + int64(i)
				}
			}
			check("half in window", half, false)
		}
	}
	check("extremes", []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 63}, false)
}
