package core

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/dram"
	"repro/internal/timing"
)

func testTester(t testing.TB, profile dram.Profile, opts ...Option) *Tester {
	t.Helper()
	spec := dram.NewSpec("core-test", profile, 0xfeed)
	spec.Columns = 256
	m, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tester, err := NewTester(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tester
}

func firstGroup(t testing.TB, tester *Tester, n int) (*dram.Subarray, bender.Group) {
	t.Helper()
	sa, err := tester.Module().Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := bender.SampleGroups(sa, tester.Module(), n, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	return sa, groups[0]
}

func TestNewTesterValidation(t *testing.T) {
	if _, err := NewTester(nil); err == nil {
		t.Fatal("nil module should fail")
	}
	spec := dram.NewSpec("x", dram.ProfileH, 1)
	m, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTester(m, WithTrials(0)); err == nil {
		t.Fatal("zero trials should fail")
	}
	if _, err := NewTester(m, WithEnv(analog.Env{TempC: -50, VPP: 2.5})); err == nil {
		t.Fatal("invalid env should fail")
	}
	tester, err := NewTester(m, WithTrials(4), WithSeed(9),
		WithEnv(analog.Env{TempC: 70, VPP: 2.3}))
	if err != nil {
		t.Fatal(err)
	}
	if tester.Trials() != 4 || tester.Env().TempC != 70 {
		t.Fatal("options not applied")
	}
}

func TestSuccessResultRate(t *testing.T) {
	if (SuccessResult{}).Rate() != 0 {
		t.Fatal("empty result rate should be 0")
	}
	r := SuccessResult{Cells: 200, Stable: 150}
	if r.Rate() != 0.75 {
		t.Fatalf("rate = %v", r.Rate())
	}
}

func TestManyRowActivationBestTimings(t *testing.T) {
	tester := testTester(t, dram.ProfileH, WithTrials(4))
	sa, g := firstGroup(t, tester, 8)
	res, err := tester.ManyRowActivation(sa, g, timing.BestSiMRA(), dram.PatternRandom)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() < 0.99 {
		t.Fatalf("8-row activation at best timings = %.4f, want >= 0.99 (Obs. 1)", res.Rate())
	}
}

func TestManyRowActivationLowTimingsDegrade(t *testing.T) {
	tester := testTester(t, dram.ProfileH, WithTrials(4))
	sa, g := firstGroup(t, tester, 8)
	good, err := tester.ManyRowActivation(sa, g, timing.BestSiMRA(), dram.PatternRandom)
	if err != nil {
		t.Fatal(err)
	}
	// Average over several groups for the bad config: per-group assert
	// failures are row-wise and lumpy.
	sweep, err := tester.RunSweep(SweepConfig{
		Op: OpManyRowActivation, N: 8,
		Timings: timing.APATimings{T1: 1.5, T2: 1.5},
		Pattern: dram.PatternRandom,
		Banks:   1, GroupsPerSubarray: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := sweep.Summary().Mean
	if bad >= good.Rate()-0.05 {
		t.Fatalf("t1=t2=1.5 should drop success well below best: bad=%.3f good=%.3f (Obs. 2)",
			bad, good.Rate())
	}
}

func TestMAJValidation(t *testing.T) {
	tester := testTester(t, dram.ProfileH)
	sa, g := firstGroup(t, tester, 4)
	if _, err := tester.MAJ(sa, g, 2, timing.BestMAJ(), dram.PatternRandom); err == nil {
		t.Fatal("even MAJ width should fail")
	}
	if _, err := tester.MAJ(sa, g, 5, timing.BestMAJ(), dram.PatternRandom); err == nil {
		t.Fatal("MAJ5 on a 4-row group should fail")
	}
}

func TestMAJ3ReplicationHelps(t *testing.T) {
	tester := testTester(t, dram.ProfileH, WithTrials(4))
	rate := func(n int) float64 {
		sweep, err := tester.RunSweep(SweepConfig{
			Op: OpMAJ, X: 3, N: n,
			Timings: timing.BestMAJ(),
			Pattern: dram.PatternRandom,
			Banks:   2, GroupsPerSubarray: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sweep.Summary().Mean
	}
	r4, r32 := rate(4), rate(32)
	if r32 <= r4+0.10 {
		t.Fatalf("MAJ3: 32-row %.3f should beat 4-row %.3f by >10pp (Obs. 6)", r32, r4)
	}
	if r32 < 0.90 {
		t.Fatalf("MAJ3 at 32-row = %.3f, want >= 0.90", r32)
	}
}

func TestMultiRowCopyBestTimings(t *testing.T) {
	tester := testTester(t, dram.ProfileH, WithTrials(4))
	for _, n := range []int{2, 8, 32} {
		sa, g := firstGroup(t, tester, n)
		res, err := tester.MultiRowCopy(sa, g, timing.BestCopy(), dram.PatternRandom)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rate() < 0.99 {
			t.Fatalf("copy to %d dests = %.4f, want >= 0.99 (Obs. 14)", n-1, res.Rate())
		}
	}
}

func TestMultiRowCopyLowT1Halves(t *testing.T) {
	tester := testTester(t, dram.ProfileH, WithTrials(4))
	sa, g := firstGroup(t, tester, 8)
	res, err := tester.MultiRowCopy(sa, g, timing.APATimings{T1: 1.5, T2: 3}, dram.PatternRandom)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() > 0.75 {
		t.Fatalf("t1=1.5 copy = %.3f, want around 0.5 (Obs. 15)", res.Rate())
	}
}

func TestRowClone(t *testing.T) {
	tester := testTester(t, dram.ProfileH)
	sa, err := tester.Module().Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := dram.PatternRandom.FillRow(3, 0, sa.Cols())
	if err := sa.WriteRow(4, src); err != nil {
		t.Fatal(err)
	}
	rate, err := tester.RowClone(sa, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.99 {
		t.Fatalf("RowClone success = %.4f", rate)
	}
	// Rows 0 and 7 differ in two predecoder fields: not a 2-row group.
	if _, err := tester.RowClone(sa, 0, 7); err == nil {
		t.Fatal("non-pair group should fail RowClone")
	}
}

func TestSamsungNoPUD(t *testing.T) {
	tester := testTester(t, dram.ProfileS, WithTrials(2))
	sa, err := tester.Module().Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := bender.SampleGroups(sa, tester.Module(), 8, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tester.ManyRowActivation(sa, groups[0], timing.BestSiMRA(), dram.Pattern00FF)
	if err != nil {
		t.Fatal(err)
	}
	// Only the second row of the APA opens, so at most 1/8 of the group's
	// cells take the WR data.
	if res.Rate() > 0.2 {
		t.Fatalf("Samsung many-row activation = %.3f, want <= 1/8 plus noise", res.Rate())
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	run := func() []float64 {
		tester := testTester(t, dram.ProfileH, WithTrials(2))
		sweep, err := tester.RunSweep(SweepConfig{
			Op: OpMultiRowCopy, N: 4,
			Timings: timing.BestCopy(),
			Pattern: dram.PatternRandom,
			Banks:   2, GroupsPerSubarray: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sweep.Rates()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different sample sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not deterministic at group %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	tester := testTester(t, dram.ProfileH)
	if _, err := tester.RunSweep(SweepConfig{Op: OpMAJ, X: 4, N: 8}); err == nil {
		t.Fatal("even MAJ width should fail")
	}
	if _, err := tester.RunSweep(SweepConfig{Op: OpMAJ, X: 3, N: 1}); err == nil {
		t.Fatal("N=1 should fail")
	}
}

func TestSweepResultAccessors(t *testing.T) {
	r := SweepResult{Outcomes: []GroupOutcome{
		{Result: SuccessResult{Cells: 10, Stable: 5}},
		{Result: SuccessResult{Cells: 10, Stable: 9}},
	}}
	rates := r.Rates()
	if len(rates) != 2 || rates[0] != 0.5 || rates[1] != 0.9 {
		t.Fatalf("rates = %v", rates)
	}
	if r.BestRate() != 0.9 {
		t.Fatalf("best = %v", r.BestRate())
	}
	if s := r.Summary(); s.Mean != 0.7 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestOpKindString(t *testing.T) {
	if OpManyRowActivation.String() == "" || OpMAJ.String() == "" ||
		OpMultiRowCopy.String() == "" {
		t.Fatal("empty op names")
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Fatal("unknown op name")
	}
}
