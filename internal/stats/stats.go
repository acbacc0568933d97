// Package stats provides the summary statistics used throughout the
// characterization harness: success-rate distributions across row groups,
// box-and-whiskers summaries matching the paper's plots.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a summary is requested for an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the box-and-whiskers statistics the paper plots: the box is
// bounded by the first and third quartiles, whiskers show min and max, and
// we additionally record mean and standard deviation for the "average
// success rate" lines.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Summarize computes a Summary over the sample. The input slice is not
// modified. It returns ErrEmpty for an empty sample.
func Summarize(sample []float64) (Summary, error) {
	if len(sample) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against FP rounding
	}

	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		StdDev: math.Sqrt(variance),
	}, nil
}

// MustSummarize is like Summarize but returns a zero Summary for an empty
// sample instead of an error. It is intended for experiment code paths
// where an empty sample indicates a configuration with zero sampled groups
// and a zero row is an acceptable report.
func MustSummarize(sample []float64) Summary {
	s, err := Summarize(sample)
	if err != nil {
		return Summary{}
	}
	return s
}

// IQR returns the inter-quartile range (box size).
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// String renders the summary in a compact single-line form used by the
// characterization CLI.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}

// quantileSorted computes the q-th quantile (0<=q<=1) of an ascending
// sorted sample using linear interpolation between closest ranks.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}
