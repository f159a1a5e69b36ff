// Package stats provides the small statistical toolkit used by MCTOP-ALG:
// medians, standard deviations, and the one-dimensional latency clustering
// of Section 3.2 of the MCTOP paper (EuroSys '17).
//
// All functions are deterministic and allocate at most O(n).
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Median returns the median of xs. It copies xs, so the input is not
// reordered. Median panics on an empty slice: callers in this module always
// operate on non-empty measurement sets, so an empty input is a programming
// error, not a runtime condition.
func Median(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedMedian(s)
}

// sortedMedian returns the median of a sorted, non-empty slice.
func sortedMedian(s []int64) int64 {
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
// MCTOP-ALG ("Clusters close values into groups"). Cluster sorts xs in
// place and clusters its histogram (ClusterBins).
func Cluster(xs []int64, opt ClusterOptions) []Triplet {
	slices.Sort(xs)
	var bins []Bin
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			bins = append(bins, Bin{Value: v})
		}
		bins[len(bins)-1].Count++
	}
	return ClusterBins(bins, opt)
}

// Bin is one distinct value of a histogram and how often it occurs.
type Bin struct {
	Value int64
	Count int
}

// ClusterBins is Cluster over a histogram: bins are the distinct values in
// increasing order, each with a positive count, and the result is what
// Cluster returns on the values they count. Equal values never straddle a
// boundary, so the gaps are taken between consecutive bins, and a
// cluster's median is read off its bins' counts. MCTOP-ALG's step 2 passes
// the histogram of its table's N(N-1)/2 off-diagonal values, which take a
// few hundred distinct values at most.
func ClusterBins(bins []Bin, opt ClusterOptions) []Triplet {
	if len(bins) == 0 {
		return nil
	}
	var out []Triplet
	start := 0
	for i := 1; i < len(bins); i++ {
		gap := bins[i].Value - bins[i-1].Value
		if gap > opt.AbsGap && float64(gap) > opt.RelGap*float64(bins[i-1].Value) {
			out = append(out, binsTriplet(bins[start:i]))
			start = i
		}
	}
	return append(out, binsTriplet(bins[start:]))
}

// binsTriplet summarizes one cluster's non-empty run of bins: the minimum,
// median and maximum of the values they count.
func binsTriplet(run []Bin) Triplet {
	n := 0
	for _, b := range run {
		n += b.Count
	}
	med := binsKth(run, n/2)
	if n%2 == 0 {
		med = (binsKth(run, n/2-1) + med) / 2
	}
	return Triplet{Min: run[0].Value, Median: med, Max: run[len(run)-1].Value}
}

// binsKth returns the k-th smallest (0-based) of the values the bins count.
func binsKth(bins []Bin, k int) int64 {
	for _, b := range bins {
		if k < b.Count {
			return b.Value
		}
		k -= b.Count
	}
	panic("stats: binsKth past the last bin")
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
