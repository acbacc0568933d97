package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 3.5 || s.Max != 3.5 || s.Median != 3.5 || s.Mean != 3.5 {
		t.Fatalf("unexpected single-value summary: %+v", s)
	}
	if s.StdDev != 0 {
		t.Fatalf("single-value stddev = %v, want 0", s.StdDev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 1..9: median 5, q1 3, q3 7, mean 5.
	var in []float64
	for i := 1; i <= 9; i++ {
		in = append(in, float64(i))
	}
	s, err := Summarize(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.IQR() != 4 {
		t.Fatalf("IQR = %v, want 4", s.IQR())
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		in := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				in = append(in, v)
			}
		}
		if len(in) == 0 {
			return true
		}
		s, err := Summarize(in)
		if err != nil {
			return false
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median &&
			s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		in := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				in = append(in, v)
			}
		}
		if len(in) == 0 {
			return true
		}
		sort.Float64s(in)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := quantileSorted(in, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

func TestQuantileSortedAgainstSort(t *testing.T) {
	in := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	s, err := Summarize(in)
	if err != nil {
		t.Fatal(err)
	}
	med := s.Median
	sorted := append([]float64(nil), in...)
	sort.Float64s(sorted)
	if med != sorted[4] {
		t.Fatalf("median = %v, want %v", med, sorted[4])
	}
}
