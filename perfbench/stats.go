package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample: the smallest value with at least ⌈p·n⌉ samples at or
// below it. It is always an observed value, never an interpolation
// between two latency modes.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// beyond counts the samples of an ascending sample strictly greater
// than v: the samples that lie beyond a percentile.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// minSamples returns the fewest distinct samples for which at least tail
// of them lie beyond the nearest-rank p-quantile.
func minSamples(p float64, tail int) int {
	for n := tail; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= tail {
			return n
		}
	}
}

// median returns the nearest-rank median of an unsorted sample without
// modifying it.
func median(sample []float64) float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// latency summarizes one window's successful op latencies.
type latency struct {
	N        int     // samples
	P50, P90 float64 // ms
	Beyond90 int     // samples strictly above P90
}

// summarize sorts the sample in place and summarizes it.
func summarize(ms []float64) latency {
	sort.Float64s(ms)
	l := latency{N: len(ms), P50: percentile(ms, 0.5), P90: percentile(ms, 0.9)}
	l.Beyond90 = beyond(ms, l.P90)
	return l
}
