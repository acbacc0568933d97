package dram

import (
	"math"
	"testing"

	"repro/internal/analog"
	"repro/internal/bitvec"
	"repro/internal/timing"
)

// TestShareNumeratorNegativeWeights pins the share-mode numerator to the
// plain Σ w·wbase·level sum when some charge-share weights are negative:
// 1 + CellCapSigma·gamma drops below zero for a large but valid
// CellCapSigma, and the solid-level fast path must still add the exact
// product w·wbase·(±1) for every cell.
func TestShareNumeratorNegativeWeights(t *testing.T) {
	params := analog.DefaultParams()
	params.CellCapSigma = 0.6
	spec := NewSpec("share-test", ProfileH, 7)
	spec.Columns = 256
	m, err := NewModule(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 1, 2}
	neg := 0
	for ord, r := range rows {
		if err := sa.FillRow(r, PatternRandom, 7, ord); err != nil {
			t.Fatal(err)
		}
		for _, w := range sa.wbaseRow(r) {
			if w < 0 {
				neg++
			}
		}
	}
	if neg == 0 {
		t.Fatal("no negative charge-share weight in the rows: the case is not exercised")
	}

	opts := APAOptions{Timings: timing.BestMAJ(), Env: analog.NominalEnv()}
	tq := opts.Timings.Quantized()
	drive := params.DriveFactor(opts.Env)
	rfWeight := params.RFWeight(tq.Total()) * drive
	want := make([]float64, sa.Cols())
	for _, r := range rows {
		w := drive
		if r == rows[0] {
			w = rfWeight
		}
		wb, val := sa.wbaseRow(r), sa.rowVal(r)
		for c := range want {
			level := -1.0
			if val[c/64]>>uint(c%64)&1 == 1 {
				level = 1
			}
			want[c] += w * wb[c] * level
		}
	}

	det, meta := make([]uint64, sa.words), make([]uint64, sa.words)
	sa.shareDetMeta(det, meta, rows[0], rows, tq, opts, sa.key2(0, 2))
	bad := 0
	for c, v := range sa.numBuf {
		if math.Float64bits(v) != math.Float64bits(want[c]) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d numerator columns differ from Σ w·wbase·level (%d negative weights)",
			bad, len(want), neg)
	}
}

// benchGroup returns subarray (0, 0) of a 64-column module (the end-to-end
// benchmark's shape) with the 32-row group activated by APA(0, rs) filled
// with random data, and share-mode options at the best MAJ timings.
func benchGroup(b *testing.B) (sa *Subarray, rs int, opts APAOptions) {
	spec := NewSpec("bench-module", ProfileH, 1)
	spec.Columns = 64
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if sa, err = m.Subarray(0, 0); err != nil {
		b.Fatal(err)
	}
	if rs, err = m.dec.PairForCount(0, 32); err != nil {
		b.Fatal(err)
	}
	rows, err := m.dec.ActivatedRows(0, rs)
	if err != nil {
		b.Fatal(err)
	}
	for ord, r := range rows {
		if err := sa.FillRow(r, PatternRandom, 1, ord); err != nil {
			b.Fatal(err)
		}
	}
	opts = APAOptions{Timings: timing.BestMAJ(), Env: analog.NominalEnv(),
		PatternCoupling: PatternRandom.CouplingFactor()}
	return sa, rs, opts
}

// BenchmarkPlanAPA times the trial-plane planning of one 32-row share-mode
// APA over 2 trials.
func BenchmarkPlanAPA(b *testing.B) {
	sa, rs, opts := benchGroup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.PlanAPA(0, rs, 2, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShareResolve times the det/meta charge-share resolution of one
// planned asserted set of a 32-row group.
func BenchmarkShareResolve(b *testing.B) {
	sa, rs, opts := benchGroup(b)
	plan, err := sa.PlanAPA(0, rs, 2, opts)
	if err != nil {
		b.Fatal(err)
	}
	if plan.Mode != ModeShare {
		b.Fatalf("mode %v, want share", plan.Mode)
	}
	det, meta := bitvec.New(sa.Cols()), bitvec.New(sa.Cols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.ShareResolve(det, meta, plan.Sets[0], plan, opts)
	}
}

// BenchmarkCopyFail times the copy-failure masks of one planned 32-row
// Multi-RowCopy set: one CopyFail per destination row, as core's copy
// kernel computes them.
func BenchmarkCopyFail(b *testing.B) {
	sa, rs, opts := benchGroup(b)
	opts.Timings = timing.BestCopy()
	plan, err := sa.PlanAPA(0, rs, 2, opts)
	if err != nil {
		b.Fatal(err)
	}
	if plan.Mode != ModeCopy {
		b.Fatalf("mode %v, want copy", plan.Mode)
	}
	set := plan.Sets[0]
	src, fail := bitvec.New(sa.Cols()), bitvec.New(sa.Cols())
	if err := sa.ReadRowInto(src, plan.RF); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range set.Rows {
			if r != plan.RF {
				sa.CopyFail(fail, r, src, len(set.Rows), plan, opts)
			}
		}
	}
}
