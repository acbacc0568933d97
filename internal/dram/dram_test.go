package dram

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/analog"
	"repro/internal/bitvec"
	"repro/internal/cache"
	"repro/internal/timing"
)

func testModule(t *testing.T, profile Profile) *Module {
	t.Helper()
	spec := NewSpec("test-module", profile, 0x1234)
	spec.Columns = 256 // keep tests fast
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testSubarray(t *testing.T, profile Profile) *Subarray {
	t.Helper()
	m := testModule(t, profile)
	sa, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func apaOpts(t1, t2 float64, trial int) APAOptions {
	return APAOptions{
		Timings: timing.APATimings{T1: t1, T2: t2},
		Env:     analog.NominalEnv(),
		Trial:   trial,
	}
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{ProfileH, ProfileH640, ProfileM, ProfileS} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileValidateRejects(t *testing.T) {
	p := ProfileH
	p.Name = ""
	if err := p.Validate(); err == nil {
		t.Fatal("empty name should fail")
	}
	p = ProfileH
	p.MaxMAJ = 4
	if err := p.Validate(); err == nil {
		t.Fatal("even MaxMAJ should fail")
	}
}

func TestSpecValidate(t *testing.T) {
	good := NewSpec("m0", ProfileH, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Columns = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero columns should fail")
	}
	bad = good
	bad.ID = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("empty ID should fail")
	}
	bad = good
	bad.Banks = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative banks should fail")
	}
}

func TestNewModuleRejectsBadParams(t *testing.T) {
	spec := NewSpec("m0", ProfileH, 1)
	p := analog.DefaultParams()
	p.VDD = 0
	if _, err := NewModule(spec, p); err == nil {
		t.Fatal("invalid analog params should fail")
	}
}

func TestSubarrayBounds(t *testing.T) {
	m := testModule(t, ProfileH)
	if _, err := m.Subarray(-1, 0); err == nil {
		t.Fatal("negative bank should fail")
	}
	if _, err := m.Subarray(16, 0); err == nil {
		t.Fatal("bank 16 should fail")
	}
	if _, err := m.Subarray(0, 999); err == nil {
		t.Fatal("subarray 999 should fail")
	}
	sa1, err := m.Subarray(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sa2, err := m.Subarray(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sa1 != sa2 {
		t.Fatal("same coordinates must return the same subarray")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	bits := PatternAA55.FillRow(7, 0, sa.Cols())
	if err := sa.WriteRow(5, bits); err != nil {
		t.Fatal(err)
	}
	got, err := sa.ReadRow(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bits) {
		t.Fatal("read does not match write")
	}
}

func TestWriteRowErrors(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if err := sa.WriteRow(-1, make([]bool, sa.Cols())); err == nil {
		t.Fatal("negative row should fail")
	}
	if err := sa.WriteRow(sa.Rows(), make([]bool, sa.Cols())); err == nil {
		t.Fatal("row beyond subarray should fail")
	}
	if err := sa.WriteRow(0, make([]bool, 3)); err == nil {
		t.Fatal("wrong width should fail")
	}
}

func TestFracRowReadsAsSABias(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if err := sa.SetFracRow(9); err != nil {
		t.Fatal(err)
	}
	r1, err := sa.ReadRow(9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sa.ReadRow(9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("Frac readout must be deterministic (static SA bias)")
	}
	ones := 0
	for _, b := range r1 {
		if b {
			ones++
		}
	}
	if ones == 0 || ones == len(r1) {
		t.Fatalf("SA bias should vary per column, got %d ones of %d", ones, len(r1))
	}
}

func TestFracUnsupportedOnMfrM(t *testing.T) {
	sa := testSubarray(t, ProfileM)
	if err := sa.SetFracRow(0); err == nil {
		t.Fatal("Mfr. M must reject Frac")
	}
}

func TestAPANominalTimingsSingleMode(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	res, err := sa.APA(0, 7, apaOpts(36, 13.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSingle {
		t.Fatalf("mode = %v, want single", res.Mode)
	}
	if !reflect.DeepEqual(res.Activated, []int{7}) {
		t.Fatalf("activated = %v", res.Activated)
	}
}

func TestAPASamsungGuarded(t *testing.T) {
	sa := testSubarray(t, ProfileS)
	res, err := sa.APA(0, 7, apaOpts(3, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSingle || len(res.Activated) != 1 {
		t.Fatalf("Samsung chips must not multi-activate: %+v", res)
	}
}

func TestAPAActivatedSetMatchesDecoder(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	res, err := sa.APA(0, 7, apaOpts(3, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeShare {
		t.Fatalf("mode = %v, want share", res.Mode)
	}
	if !reflect.DeepEqual(res.Activated, []int{0, 1, 6, 7}) {
		t.Fatalf("activated = %v", res.Activated)
	}
	if len(res.Asserted) == 0 || len(res.Asserted) > 4 {
		t.Fatalf("asserted = %v", res.Asserted)
	}
}

func TestAPACopyModeAtLongT1(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	res, err := sa.APA(0, 1, apaOpts(36, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeCopy {
		t.Fatalf("mode = %v, want copy", res.Mode)
	}
}

func TestAPABoundsChecked(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if _, err := sa.APA(-1, 0, apaOpts(3, 3, 0)); err == nil {
		t.Fatal("negative rf should fail")
	}
	if _, err := sa.APA(0, 4096, apaOpts(3, 3, 0)); err == nil {
		t.Fatal("out-of-range rs should fail")
	}
}

// TestRowCloneCopiesData: the fundamental RowClone behaviour — at t1=tRAS
// and violated tRP, the second row receives the first row's data.
func TestRowCloneCopiesData(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	src := PatternRandom.FillRow(42, 0, sa.Cols())
	if err := sa.WriteRow(0, src); err != nil {
		t.Fatal(err)
	}
	if err := sa.WriteRow(1, Invert(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.APA(0, 1, apaOpts(36, 3, 0)); err != nil {
		t.Fatal(err)
	}
	sa.Precharge()
	got, err := sa.ReadRow(1)
	if err != nil {
		t.Fatal(err)
	}
	match := 0
	for c := range got {
		if got[c] == src[c] {
			match++
		}
	}
	if frac := float64(match) / float64(len(got)); frac < 0.99 {
		t.Fatalf("RowClone copied %.2f%% of bits, want >99%%", frac*100)
	}
}

// TestMultiRowCopy31Destinations: one source to 31 destinations at the
// paper's best copy timings succeeds on ~all cells (Obs. 14).
func TestMultiRowCopy31Destinations(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	src := PatternRandom.FillRow(7, 0, sa.Cols())
	rf := 127
	rs, err := sa.mod.Decoder().PairForCount(rf, 32)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sa.mod.Decoder().ActivatedRows(rf, rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.WriteRow(rf, src); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r != rf {
			if err := sa.WriteRow(r, Invert(src)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := sa.APA(rf, rs, apaOpts(36, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeCopy || len(res.Activated) != 32 {
		t.Fatalf("unexpected result: %+v", res)
	}
	sa.Precharge()
	total, match := 0, 0
	for _, r := range rows {
		got, err := sa.ReadRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			total++
			if got[c] == src[c] {
				match++
			}
		}
	}
	if frac := float64(match) / float64(total); frac < 0.97 {
		t.Fatalf("Multi-RowCopy success = %.3f, want >0.97", frac)
	}
}

// TestShareModeMAJ3Unanimous: three rows storing the same value always
// resolve to that value — the easiest majority.
func TestShareModeMAJ3Unanimous(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	ones := make([]bool, sa.Cols())
	for i := range ones {
		ones[i] = true
	}
	// Rows {0,1,6,7} activate together; fill all four with 1s.
	for _, r := range []int{0, 1, 6, 7} {
		if err := sa.WriteRow(r, ones); err != nil {
			t.Fatal(err)
		}
	}
	opts := apaOpts(1.5, 3, 0)
	opts.MAJ = &MAJSpec{X: 3, Copies: 1}
	res, err := sa.APA(0, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeShare {
		t.Fatalf("mode = %v", res.Mode)
	}
	sa.Precharge()
	got, err := sa.ReadRow(0)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, b := range got {
		if b {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(got)); frac < 0.95 && res.Viable {
		t.Fatalf("unanimous MAJ success = %.3f on a viable group", frac)
	}
}

func TestWriteOpenRowsRequiresAPA(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if err := sa.WriteOpenRows(make([]bool, sa.Cols())); err == nil {
		t.Fatal("WR without open rows should fail")
	}
}

// TestManyRowActivationWRUpdatesAllRows is the §3.2 methodology end to
// end: APA at best timings then WR; every activated row stores the WR data.
func TestManyRowActivationWRUpdatesAllRows(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	init := Pattern00FF.FillRow(1, 0, sa.Cols())
	wrData := Invert(init)
	rf := 0
	rs, err := sa.mod.Decoder().PairForCount(rf, 8)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sa.mod.Decoder().ActivatedRows(rf, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := sa.WriteRow(r, init); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sa.APA(rf, rs, apaOpts(3, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sa.WriteOpenRows(wrData); err != nil {
		t.Fatal(err)
	}
	sa.Precharge()
	total, match := 0, 0
	for _, r := range rows {
		got, err := sa.ReadRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			total++
			if got[c] == wrData[c] {
				match++
			}
		}
	}
	if frac := float64(match) / float64(total); frac < 0.99 {
		t.Fatalf("many-row activation success = %.4f, want >0.99", frac)
	}
}

// TestAPADeterministic: identical modules produce identical results.
func TestAPADeterministic(t *testing.T) {
	run := func() []bool {
		spec := NewSpec("det", ProfileH, 777)
		spec.Columns = 128
		m, err := NewModule(spec, analog.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		sa, err := m.Subarray(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{0, 1, 6, 7} {
			if err := sa.FillRow(r, PatternRandom, 5, r); err != nil {
				t.Fatal(err)
			}
		}
		opts := apaOpts(1.5, 3, 0)
		opts.MAJ = &MAJSpec{X: 3, Copies: 1}
		if _, err := sa.APA(0, 7, opts); err != nil {
			t.Fatal(err)
		}
		sa.Precharge()
		got, err := sa.ReadRow(0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("simulation must be deterministic for a fixed seed")
	}
}

func TestPatternPairRowsUseBothBytes(t *testing.T) {
	// Each filled row of a paired pattern is solid (one byte repeated),
	// and both bytes of the pair appear across many rows.
	for _, p := range []Pattern{Pattern00FF, PatternAA55, PatternCC33, Pattern6699} {
		sawA, sawB := false, false
		first := p.Bit(1, 0, 0)
		_ = first
		for row := 0; row < 64; row++ {
			ref := p.FillRow(1, row, 8)
			// Solid along the row: every 8-column stride repeats.
			wide := p.FillRow(1, row, 64)
			for c := range wide {
				if wide[c] != ref[c%8] {
					t.Fatalf("pattern %v row %d not byte-periodic", p, row)
				}
			}
			if ref[0] == p.FillRow(1, 0, 8)[0] && reflect.DeepEqual(ref, p.FillRow(1, 0, 8)) {
				sawA = true
			} else {
				sawB = true
			}
		}
		if !sawA || !sawB {
			t.Fatalf("pattern %v never used both bytes of the pair", p)
		}
	}
}

func TestPatternRandomRowsDiffer(t *testing.T) {
	r0 := PatternRandom.FillRow(1, 0, 64)
	r1 := PatternRandom.FillRow(1, 1, 64)
	if reflect.DeepEqual(r0, r1) {
		t.Fatal("random rows should differ")
	}
	f := func(seed uint64, row uint8) bool {
		a := PatternRandom.FillRow(seed, int(row), 32)
		b := PatternRandom.FillRow(seed, int(row), 32)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternAll0All1(t *testing.T) {
	for c := 0; c < 64; c++ {
		if PatternAll0.Bit(0, 0, c) {
			t.Fatal("All0 produced a 1")
		}
		if !PatternAll1.Bit(0, 0, c) {
			t.Fatal("All1 produced a 0")
		}
	}
}

func TestPatternCouplingOrdering(t *testing.T) {
	if PatternRandom.CouplingFactor() != 1 {
		t.Fatal("random coupling factor must be 1")
	}
	for _, p := range []Pattern{Pattern00FF, PatternAA55, PatternCC33, Pattern6699, PatternAll0, PatternAll1} {
		if f := p.CouplingFactor(); f <= 0 || f >= 0.5 {
			t.Fatalf("pattern %v coupling factor %v out of expected range", p, f)
		}
	}
}

func TestInvert(t *testing.T) {
	in := []bool{true, false, true}
	got := Invert(in)
	if !reflect.DeepEqual(got, []bool{false, true, false}) {
		t.Fatalf("Invert = %v", got)
	}
	if !in[0] {
		t.Fatal("Invert must not mutate its input")
	}
}

func TestPatternString(t *testing.T) {
	if PatternRandom.String() != "Random" || Pattern00FF.String() != "0x00/0xFF" {
		t.Fatal("unexpected pattern names")
	}
	if Pattern(99).String() != "Pattern(99)" {
		t.Fatal("unknown pattern string")
	}
}

func TestRawLevel(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if err := sa.SetFracRow(3); err != nil {
		t.Fatal(err)
	}
	v, err := sa.RawLevel(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.5 {
		t.Fatalf("Frac level = %v, want 0.5", v)
	}
	if _, err := sa.RawLevel(3, -1); err == nil {
		t.Fatal("negative column should fail")
	}
	if _, err := sa.RawLevel(9999, 0); err == nil {
		t.Fatal("bad row should fail")
	}
}

// TestRowsImageRoundTrip: a saved image restores both planes of its rows
// exactly — solid and Frac cells — whatever the rows held since, and is
// refused by a subarray of another width.
func TestRowsImageRoundTrip(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	v := bitvec.New(sa.Cols())
	v.FillWordPattern(0xdeadbeefcafef00d)
	if err := sa.WriteRowVec(4, v); err != nil {
		t.Fatal(err)
	}
	if err := sa.SetFracRow(9); err != nil {
		t.Fatal(err)
	}
	rows := []int{4, 9, 11}
	levels := func() []float64 {
		var out []float64
		for _, r := range rows {
			for c := 0; c < sa.Cols(); c++ {
				l, err := sa.RawLevel(r, c)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, l)
			}
		}
		return out
	}
	want := levels()
	img, err := sa.SaveRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	v.Fill(true)
	for _, r := range rows {
		if err := sa.WriteRowVec(r, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.RestoreRows(img); err != nil {
		t.Fatal(err)
	}
	if got := levels(); !slices.Equal(got, want) {
		t.Fatal("restored rows differ from the saved ones")
	}
	if _, err := sa.SaveRows([]int{sa.Rows()}); err == nil {
		t.Fatal("saving a row outside the subarray succeeded")
	}
	spec := NewSpec("image-test", ProfileH, 1)
	spec.Columns = sa.Cols() + 64
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	wide, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.RestoreRows(img); err == nil {
		t.Fatal("a subarray of another width accepted the image")
	}
}

func TestOpenRowsLifecycle(t *testing.T) {
	sa := testSubarray(t, ProfileH)
	if rows := sa.OpenRows(); len(rows) != 0 {
		t.Fatalf("fresh subarray has open rows: %v", rows)
	}
	if _, err := sa.APA(0, 1, apaOpts(3, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if rows := sa.OpenRows(); len(rows) == 0 {
		t.Fatal("APA should leave rows open")
	}
	sa.Precharge()
	if rows := sa.OpenRows(); len(rows) != 0 {
		t.Fatal("Precharge should close all rows")
	}
}

// TestIdentityKeyKnownAnswer pins a module's simulation-identity digest —
// the shared HashModule block under the static-table tag — so table
// sharing and the registries keyed by it survive refactors byte for byte.
func TestIdentityKeyKnownAnswer(t *testing.T) {
	spec := NewSpec("kat-module", ProfileM, 0x5eed)
	spec.Columns = 512
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const want = "a1715d248ef69e947e032ae662c524d5f81c9171061c94ca22610c0d977ee967"
	if got := cache.KeyString(m.IdentityKey()); got != want {
		t.Errorf("identity key %s, want %s", got, want)
	}
}

// TestIdentityKeySignedZero checks that the electrical-model block tells
// a negative zero from a positive one: the two print differently, so
// they must not share a key even though they compare equal.
func TestIdentityKeySignedZero(t *testing.T) {
	spec := NewSpec("kat-module", ProfileM, 0x5eed)
	spec.Columns = 512
	pos := analog.DefaultParams()
	pos.CouplingSigma = 0
	neg := pos
	neg.CouplingSigma = math.Copysign(0, -1)
	if pos != neg {
		t.Fatal("test premise: +0 and -0 params should compare equal")
	}
	mp, err := NewModule(spec, pos)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := NewModule(spec, neg)
	if err != nil {
		t.Fatal(err)
	}
	if mp.IdentityKey() == mn.IdentityKey() {
		t.Error("params differing only in the sign of a zero share an identity key")
	}
}
