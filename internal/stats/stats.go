// Package stats provides the small statistical toolkit used by MCTOP-ALG:
// medians, standard deviations, and the one-dimensional latency clustering
// of Section 3.2 of the MCTOP paper (EuroSys '17).
//
// All functions are deterministic and allocate at most O(n).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs. It copies xs, so the input is not
// reordered. Median panics on an empty slice: callers in this module always
// operate on non-empty measurement sets, so an empty input is a programming
// error, not a runtime condition.
func Median(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MedianInPlace returns the median of xs, reordering xs in place instead of
// copying it. It exists for the measurement hot loop, which reuses one
// buffer across hundreds of thousands of pairs and must not allocate per
// pair; everywhere else prefer Median, which leaves its input untouched.
// Nobody reads the order it leaves behind, so it does not sort: see
// MedianStdevInPlace.
func MedianInPlace(xs []int64) int64 {
	med, _ := MedianStdevInPlace(xs, false)
	return med
}

// medianWindow is the width of the value range, from a round's minimum up,
// whose samples MedianStdevInPlace counts instead of selecting among.
const medianWindow = 64

// MedianStdevInPlace returns MedianInPlace(xs) and, when withStdev is set,
// the population standard deviation of xs, in as few passes as the samples
// allow. The stdev is the two-pass one — the float mean summed in sample
// order, then the squared deviations summed in sample order — bit for bit.
// Equal samples cost one pass: the median is their value and the stdev 0
// (what the two passes compute whenever their float sum is exact, i.e.
// |value|·len(xs) < 2^53). Otherwise a second pass sums the squared
// deviations and counts the samples into one bucket per value of
// [min, min+medianWindow). A latency round is a narrow band of jitter over
// its minimum plus rare spikes, so more than half of it lands there and the
// median is read off the counts; a round that does not falls back to
// quickselect. It reorders xs only on that fallback.
func MedianStdevInPlace(xs []int64, withStdev bool) (med int64, sd float64) {
	n := len(xs)
	if n == 0 {
		panic("stats: MedianInPlace of empty slice")
	}
	lo, hi := xs[0], xs[0]
	var sum float64
	for _, v := range xs {
		lo, hi = min(lo, v), max(hi, v)
		if withStdev {
			sum += float64(v)
		}
	}
	if lo == hi {
		return lo, 0
	}

	// counts[medianWindow] gathers every sample past the window; v-lo is
	// the sample's distance from the minimum, exact as an unsigned word.
	var counts [medianWindow + 1]int32
	mean := sum / float64(n)
	var ss float64
	for _, v := range xs {
		counts[min(uint64(v-lo), medianWindow)]++
		if withStdev {
			d := float64(v) - mean
			ss += d * d
		}
	}
	if withStdev {
		sd = math.Sqrt(ss / float64(n))
	}

	if int(counts[medianWindow]) < n-n/2 {
		// The window holds the n/2+1 smallest samples.
		upper := lo + countedKth(&counts, n/2)
		if n%2 == 1 {
			return upper, sd
		}
		return (lo + countedKth(&counts, n/2-1) + upper) / 2, sd
	}
	upper := selectKth(xs, n/2)
	if n%2 == 1 {
		return upper, sd
	}
	// xs[:n/2] now holds the n/2 smallest values; the lower middle element
	// of the sorted order is their maximum.
	lower := xs[0]
	for _, v := range xs[1 : n/2] {
		if v > lower {
			lower = v
		}
	}
	return (lower + upper) / 2, sd
}

// countedKth returns the distance from the minimum of the k-th smallest
// (0-based) of the counted samples; k must fall inside the window.
func countedKth(counts *[medianWindow + 1]int32, k int) int64 {
	seen := 0
	for b, c := range counts[:medianWindow] {
		if seen += int(c); seen > k {
			return int64(b)
		}
	}
	panic("stats: countedKth past the window")
}

// selectKth returns the k-th smallest value of xs (0-based) and leaves xs
// partitioned around it: nothing before index k is larger, nothing after it
// smaller. Quickselect with a median-of-three pivot and a three-way
// partition: a round of latency samples is a handful of distinct values
// repeated many times, and a run of values equal to the pivot is settled in
// the pass that meets it.
func selectKth(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		if a > b {
			b = a
		}
		pivot := b
		// Two Lomuto passes, each swapping unconditionally and advancing its
		// boundary by the comparison's result, so that no branch depends on
		// the data (samples are noise: such a branch is a coin flip to the
		// predictor). The first moves the values below the pivot to the
		// front; the second, within the rest, the values equal to it. Then
		// xs[lo:lt] < pivot, xs[lt:eq] == pivot, xs[eq:hi+1] > pivot.
		lt := lo
		for i := lo; i <= hi; i++ {
			v := xs[i]
			xs[i], xs[lt] = xs[lt], v
			var below int
			if v < pivot {
				below = 1
			}
			lt += below
		}
		eq := lt
		for i := lt; i <= hi; i++ {
			v := xs[i]
			xs[i], xs[eq] = xs[eq], v
			var equal int
			if v == pivot {
				equal = 1
			}
			eq += equal
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k >= eq:
			lo = eq
		default:
			return pivot
		}
	}
	return xs[k]
}

// Triplet summarizes a latency cluster with its minimum, median and maximum
// values, exactly as MCTOP-ALG records each detected cluster (Section 3.2).
type Triplet struct {
	Min, Median, Max int64
}

func (t Triplet) String() string {
	return fmt.Sprintf("[%d %d %d]", t.Min, t.Median, t.Max)
}

// Contains reports whether v falls in the closed interval [Min, Max].
func (t Triplet) Contains(v int64) bool { return v >= t.Min && v <= t.Max }

// ClusterOptions tunes the 1-D clustering of latency values. Both gaps are
// required: MCTOP-ALG passes RelGap 0.04 and AbsGap 10.
type ClusterOptions struct {
	// RelGap is the minimum relative gap between consecutive sorted values
	// for a cluster boundary: a boundary is placed between a and b (a < b)
	// when (b-a) > RelGap*a and (b-a) > AbsGap. Real machines separate
	// their levels by 3-4x (SMT vs core vs socket) and jitter within a
	// level by a few percent.
	RelGap float64
	// AbsGap is the minimum absolute gap (cycles) for a boundary, protecting
	// tiny values (e.g. the 0 diagonal) from spurious splits.
	AbsGap int64
}

// Cluster partitions xs into latency clusters and returns one Triplet per
// cluster in increasing value order. The clustering is gap based: sorted
// values are split wherever consecutive values are separated by more than
// the configured relative and absolute gaps. This implements step 2 of
// MCTOP-ALG ("Clusters close values into groups").
func Cluster(xs []int64, opt ClusterOptions) []Triplet {
	if len(xs) == 0 {
		return nil
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })

	// Find boundaries.
	var groups [][]int64
	start := 0
	for i := 1; i < len(s); i++ {
		gap := s[i] - s[i-1]
		if gap > opt.AbsGap && float64(gap) > opt.RelGap*float64(s[i-1]) {
			groups = append(groups, s[start:i])
			start = i
		}
	}
	groups = append(groups, s[start:])

	out := make([]Triplet, len(groups))
	for i, g := range groups {
		out[i] = Triplet{Min: g[0], Median: Median(g), Max: g[len(g)-1]}
	}
	return out
}

// Assign maps value v to the index of the cluster whose [Min, Max] interval
// contains it, or to the nearest cluster median if no interval contains it.
// The second return value is false only when clusters is empty.
func Assign(clusters []Triplet, v int64) (int, bool) {
	if len(clusters) == 0 {
		return 0, false
	}
	for i, c := range clusters {
		if c.Contains(v) {
			return i, true
		}
	}
	best, bestDist := 0, int64(math.MaxInt64)
	for i, c := range clusters {
		d := v - c.Median
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	return best, true
}

// Normalize replaces every value in table with the median of its assigned
// cluster, producing the normalized latency table of Figure 6 (2b). The
// diagonal (self-latency zero) is preserved as-is. Normalize returns a new
// table; the input is not modified.
func Normalize(table [][]int64, clusters []Triplet) [][]int64 {
	out := make([][]int64, len(table))
	for i, row := range table {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			if i == j {
				out[i][j] = 0
				continue
			}
			idx, ok := Assign(clusters, v)
			if !ok {
				out[i][j] = v
				continue
			}
			out[i][j] = clusters[idx].Median
		}
	}
	return out
}
