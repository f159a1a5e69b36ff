package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even sample, so a median
// over few rounds is not biased towards the slower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the round-to-round spread: the distance between the first and
// the third quartile as a share of the median, the statistic the driver
// applies to runs (quartiles as Python's statistics.quantiles(xs, n=4)).
// With dozens of short rounds on a shared box, max-min only reports the
// worst outlier.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

// nsToMs converts a latency sample to milliseconds, ascending.
func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// series collects one value per round for each named metric.
type series struct {
	values map[string][]float64
	// samples is the number of latency samples behind one round's value.
	samples map[string]int
}

func newSeries() *series {
	return &series{values: map[string][]float64{}, samples: map[string]int{}}
}

func (s *series) add(name string, v float64, samples int) {
	s.values[name] = append(s.values[name], v)
	s.samples[name] = samples
}

func (s *series) last(name string) float64 {
	v := s.values[name]
	return v[len(v)-1]
}
