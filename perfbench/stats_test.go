package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.0001, 1}}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	// A bimodal sample's median is an observed value, not a midpoint.
	if got := percentile([]float64{1, 1, 9, 9}, 0.5); got != 1 {
		t.Errorf("bimodal median = %v, want 1", got)
	}
}

func TestBeyondCountsStrictlyGreater(t *testing.T) {
	s := []float64{1, 2, 2, 3, 5}
	for v, want := range map[float64]int{0: 5, 2: 2, 3: 1, 5: 0, 9: 0} {
		if got := beyond(s, v); got != want {
			t.Errorf("beyond(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestMinSamplesGivesTenBeyondP90(t *testing.T) {
	n := minSamples(0.9, 10)
	if n != 100 {
		t.Fatalf("minSamples(0.9, 10) = %d, want 100", n)
	}
	for _, size := range []int{n - 1, n, n + 7} {
		s := make([]float64, size)
		for i := range s {
			s[i] = float64(i)
		}
		l := summarize(s)
		if ok := l.Beyond90 >= 10; ok != (size >= n) {
			t.Errorf("n=%d: %d samples beyond p90", size, l.Beyond90)
		}
	}
}

func TestSummarizeAndMedian(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	if m := median(in); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if in[0] != 5 {
		t.Fatal("median reordered its input")
	}
	l := summarize(in)
	if l.N != 5 || l.P50 != 3 || l.P90 != 5 || l.Beyond90 != 0 {
		t.Fatalf("summary = %+v", l)
	}
}
