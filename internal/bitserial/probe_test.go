package bitserial

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/timing"
)

// probeGroupScalar is the reference probe: the per-repeat loop the planned
// probe replaces, kept as the differential oracle. Every repeat restages
// the group and fires its own APA.
func (c *Computer) probeGroupScalar(g bender.Group, x int) (bitvec.Vec, error) {
	saved := c.group
	c.group = g
	defer func() { c.group = saved }()

	mask := bitvec.New(c.sa.Cols())
	mask.Fill(true)
	winners := (x + 1) / 2
	copies := c.group.N() / x
	for m := 0; m < 1<<x; m++ {
		pop := popcount(m)
		if pop != winners && pop != x-winners {
			continue
		}
		expectOne := pop == winners
		operands := c.rows(x)
		winnerSlot := -1
		for j := range operands {
			bit := m>>j&1 == 1
			if bit == expectOne && winnerSlot < 0 {
				winnerSlot = j
			}
			operands[j].Fill(bit)
		}
		variants := []int{-1}
		if copies > 1 {
			variants = []int{weakenRowIndex(copies-1, x, winnerSlot),
				weakenRowIndex(0, x, winnerSlot)}
		}
		for _, weakenRow := range variants {
			for rep := 0; rep < probeRepeats; rep++ {
				got, _, err := c.execMAJWeakened(operands, weakenRow)
				if err != nil {
					return bitvec.Vec{}, err
				}
				foldProbe(mask, got, expectOne)
			}
		}
	}
	return mask, nil
}

// buildComputer is NewComputerAt with the group probe as a parameter and
// no memo: it always runs the probe, so the tests can check the planned
// probe against the scalar reference and the memo against both.
func buildComputer(mod *dram.Module, sa *dram.Subarray, maxX int,
	env analog.Env, at timing.APATimings, probe probeFunc) (*Computer, error) {
	c, err := unprobed(mod, sa, maxX, env, at)
	if err != nil {
		return nil, err
	}
	if _, err := c.calibrate(probe); err != nil {
		return nil, err
	}
	if err := c.initConstants(); err != nil {
		return nil, err
	}
	return c, nil
}

// probeCase is one operating point of the differential oracle.
type probeCase struct {
	spec dram.Spec
	maxX int
	env  analog.Env
	at   timing.APATimings
}

func (pc probeCase) String() string {
	return fmt.Sprintf("%s/%s/%d/maxX%d/%+v/%+v", pc.spec.Profile.Name, pc.spec.DieRev,
		pc.spec.Profile.Decoder.Rows, pc.maxX, pc.env, pc.at)
}

// build constructs a computer for the case on a private module instance,
// with the given probe.
func (pc probeCase) build(t testing.TB, probe probeFunc) (*Computer, error) {
	t.Helper()
	mod, err := dram.NewModule(pc.spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return buildComputer(mod, sa, pc.maxX, pc.env, pc.at, probe)
}

// checkProbePlan builds the case's computer with the planned and the
// scalar probe and requires the same outcome: error, group, width,
// reliable mask, trial counter and array contents — and, because a
// workload's trials follow the probe, the same results for a few gates
// run afterwards.
func checkProbePlan(t testing.TB, pc probeCase) {
	t.Helper()
	got, gotErr := pc.build(t, (*Computer).probeGroup)
	want, wantErr := pc.build(t, (*Computer).probeGroupScalar)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%v: planned probe error %v, scalar %v", pc, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if fmt.Sprint(got.group) != fmt.Sprint(want.group) || got.maxX != want.maxX {
		t.Fatalf("%v: planned probe chose %v MAJ%d, scalar %v MAJ%d",
			pc, got.group, got.maxX, want.group, want.maxX)
	}
	if !got.reliable.Equal(want.reliable) {
		t.Fatalf("%v: reliable masks differ (%d vs %d columns)", pc, got.Reliable(), want.Reliable())
	}
	if got.trial != want.trial {
		t.Fatalf("%v: planned probe ends at trial %d, scalar at %d", pc, got.trial, want.trial)
	}
	sameRows(t, pc, got, want)

	for _, c := range []*Computer{got, want} {
		regs := make([]int, 3)
		for i := range regs {
			r, err := c.AllocReg()
			if err != nil {
				t.Fatal(err)
			}
			regs[i] = r
		}
		a, b, dst := regs[0], regs[1], regs[2]
		for i, r := range []int{a, b} {
			v := bitvec.New(c.Cols())
			v.FillWordPattern(0x9e3779b97f4a7c15 >> uint(i))
			if err := c.WriteRowVecDirect(r, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.MAJ(dst, a, b, c.One()); err != nil {
			t.Fatal(err)
		}
		if err := c.AND(a, dst, b); err != nil {
			t.Fatal(err)
		}
	}
	if got.trial != want.trial {
		t.Fatalf("%v: after gates planned computer at trial %d, scalar at %d", pc, got.trial, want.trial)
	}
	sameRows(t, pc, got, want)
}

// sameRows requires every row of the two computers' subarrays to read
// back identically.
func sameRows(t testing.TB, pc probeCase, got, want *Computer) {
	t.Helper()
	for r := 0; r < got.sa.Rows(); r++ {
		g, err := got.sa.ReadRowVec(r)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.sa.ReadRowVec(r)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(w) {
			t.Fatalf("%v: row %d differs between planned and scalar probe", pc, r)
		}
	}
}

// table2Specs returns one 64-column spec per distinct Table 2 profile,
// die revision and subarray height.
func table2Specs(seed uint64) []dram.Spec {
	fc := fleet.DefaultConfig()
	fc.Columns = 64
	var out []dram.Spec
	for _, e := range fleet.Representative(fc) {
		spec := e.Spec
		spec.Seed ^= seed
		out = append(out, spec)
	}
	return out
}

// stressedEnv is an operating point at which the probe finds no reliable
// compute group: weak drive and slow predecoder latches leave too few
// columns resolving every probe.
var stressedEnv = analog.Env{TempC: 50, VPP: 1.5, Aging: 50, Disturb: 100}

// TestProbePlanMatchesScalar is the differential oracle for the planned
// probe: every Table 2 profile at MAJ widths 3/5/7/9 under the best MAJ
// timings, a copy-mode and a no-tRP-violation timing point, and a
// stressed environment with no viable group.
func TestProbePlanMatchesScalar(t *testing.T) {
	noViolation := timing.APATimings{T1: 36, T2: 15}
	for _, spec := range table2Specs(0) {
		for _, maxX := range []int{3, 5, 7, 9} {
			pc := probeCase{spec: spec, maxX: maxX, env: analog.NominalEnv(), at: timing.BestMAJ()}
			t.Run(pc.String(), func(t *testing.T) { checkProbePlan(t, pc) })
		}
		for _, pc := range []probeCase{
			{spec: spec, maxX: 5, env: analog.NominalEnv(), at: timing.BestCopy()},
			{spec: spec, maxX: 5, env: analog.NominalEnv(), at: noViolation},
			{spec: spec, maxX: 5, env: stressedEnv, at: timing.BestMAJ()},
		} {
			t.Run(pc.String(), func(t *testing.T) { checkProbePlan(t, pc) })
		}
	}
}

// TestProbeOracleCoverage pins that the oracle's cases reach both
// share-mode branches of the planned probe: the stressed point finds no
// reliable group on any Table 2 module, and some candidate groups plan a
// non-viable MAJ3 (group viability does not depend on the environment, so
// the nominal cases probe those groups through the metastable branch).
func TestProbeOracleCoverage(t *testing.T) {
	nonViable := 0
	for _, spec := range table2Specs(0) {
		pc := probeCase{spec: spec, maxX: 5, env: stressedEnv, at: timing.BestMAJ()}
		if _, err := pc.build(t, (*Computer).probeGroup); !errors.Is(err, ErrNoReliableGroup) {
			t.Fatalf("%v: got %v, want ErrNoReliableGroup", pc, err)
		}
		mod, err := dram.NewModule(spec, analog.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		sa, err := mod.Subarray(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := bender.SampleGroups(sa, mod, 32, 8, 0xc0117)
		if err != nil {
			t.Fatal(err)
		}
		c := &Computer{sa: sa, env: analog.NominalEnv(), timings: timing.BestMAJ()}
		for _, g := range groups {
			c.group = g
			plan, err := sa.PlanAPA(g.RF, g.RS, probeRepeats, c.majOpts(3, 1))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Mode != dram.ModeShare {
				t.Fatalf("%v: group %d/%d plans %v, want share", pc, g.RF, g.RS, plan.Mode)
			}
			if !plan.Viable {
				nonViable++
			}
		}
	}
	if nonViable == 0 {
		t.Fatal("no candidate group plans a non-viable MAJ3: the metastable branch is untested")
	}
}

// FuzzProbePlan compares the planned probe with the scalar reference over
// module seeds, majority widths and operating environments. The byte
// inputs map onto the supported ranges: temperature 0-120 °C in 1 °C
// steps, VPP 1.5-3.0 V in 10 mV steps, aging 0-50 years and disturbance
// 0-100.
func FuzzProbePlan(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(50), uint8(100), uint8(0), uint8(0))
	f.Add(uint64(0xbead), uint8(9), uint8(85), uint8(80), uint8(2), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(50), uint8(0), uint8(50), uint8(100))
	f.Add(uint64(7), uint8(7), uint8(120), uint8(150), uint8(0), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, x, temp, vpp, aging, disturb uint8) {
		env := analog.Env{
			TempC:   float64(temp % 121),
			VPP:     1.5 + float64(vpp%151)/100,
			Aging:   float64(aging % 51),
			Disturb: float64(disturb % 101),
		}
		specs := table2Specs(seed)
		spec := specs[int(seed%uint64(len(specs)))]
		maxX := 3 + 2*int(x%4)
		checkProbePlan(t, probeCase{spec: spec, maxX: maxX, env: env, at: timing.BestMAJ()})
	})
}

// BenchmarkNewComputer times a computer's construction on the
// representative H module at 64 columns with MAJ5. fresh gives every
// iteration a new module seed, so each construction is a new identity
// that runs the compute-group probe and publishes its calibration; a
// fresh-seed workload request does not do this, because the request seed
// feeds only the workload's data and the module seeds come from the fixed
// fleet. reuse is that request's case: one identity, one pooled instance
// reset between iterations, so every construction after the first
// restores the memoized calibration.
func BenchmarkNewComputer(b *testing.B) {
	var spec dram.Spec
	for _, s := range table2Specs(0) {
		if s.Profile.Name == "H" {
			spec = s
			break
		}
	}
	build := func(b *testing.B, mod *dram.Module) {
		sa, err := mod.Subarray(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewComputer(mod, sa, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		spec := spec
		base := spec.Seed
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec.Seed = base + uint64(i)
			mod, err := dram.NewModule(spec, analog.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			build(b, mod)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		mod, err := dram.NewModule(spec, analog.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		build(b, mod)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mod.Reset()
			build(b, mod)
		}
	})
}
