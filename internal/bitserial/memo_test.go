package bitserial

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analog"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/timing"
)

// memoSpecs returns every Table 2 module and every Samsung control module
// at the given width, with seeds no other test uses, so each case's first
// NewComputerAt is the one that fills the memo.
func memoSpecs(cols int) []dram.Spec {
	fc := fleet.DefaultConfig()
	fc.Columns = cols
	var out []dram.Spec
	for _, e := range append(fleet.Modules(fc), fleet.SamsungModules(fc)...) {
		spec := e.Spec
		spec.Seed ^= 0x3e307e57
		out = append(out, spec)
	}
	return out
}

// preState is what a subarray holds before a computer is built on it.
type preState int

const (
	clean  preState = iota // a fresh instance: all rows zero, bank closed
	dirty                  // pattern rows, Frac rows and open rows
	dirty2                 // another such state, the one the memo is filled from
)

// instance builds a private module instance of the case's spec and
// returns its compute subarray in the given pre-state.
func (pc probeCase) instance(t testing.TB, pre preState) (*dram.Module, *dram.Subarray) {
	t.Helper()
	mod, err := dram.NewModule(pc.spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pre == clean {
		return mod, sa
	}
	v := bitvec.New(sa.Cols())
	for r := 0; r < sa.Rows(); r++ {
		if r%7 == int(pre) && sa.SetFracRow(r) == nil {
			continue
		}
		v.FillWordPattern(0x9e3779b97f4a7c15*uint64(r+1) ^ uint64(pre)<<32)
		if err := sa.WriteRowVec(r, v); err != nil {
			t.Fatal(err)
		}
	}
	// Leave a multi-row activation open, so the computer must also close
	// the bank the way the probe would.
	if _, err := sa.APA(1, 2, dram.APAOptions{Timings: timing.BestCopy(), Env: analog.NominalEnv()}); err != nil {
		t.Fatal(err)
	}
	return mod, sa
}

// planes returns both bit planes of every row of the subarray.
func planes(t testing.TB, sa *dram.Subarray) dram.RowsImage {
	t.Helper()
	rows := make([]int, sa.Rows())
	for r := range rows {
		rows[r] = r
	}
	img, err := sa.SaveRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// sameComputer requires two constructions to agree exactly: the error
// text, or the group, width, reliable mask, trial counter, open rows and
// every row's bit planes; and, because a workload's trials follow the
// probe, the same state again after the same gates run on both.
func sameComputer(t testing.TB, name string, got *Computer, gotErr error, want *Computer, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if fmt.Sprint(got.group) != fmt.Sprint(want.group) || got.maxX != want.maxX {
		t.Fatalf("%s: chose %v MAJ%d, want %v MAJ%d", name, got.group, got.maxX, want.group, want.maxX)
	}
	if !got.reliable.Equal(want.reliable) {
		t.Fatalf("%s: reliable masks differ (%d vs %d columns)", name, got.Reliable(), want.Reliable())
	}
	sameState := func(when string) {
		t.Helper()
		if got.trial != want.trial {
			t.Fatalf("%s: %s at trial %d, want %d", name, when, got.trial, want.trial)
		}
		if g, w := got.sa.OpenRows(), want.sa.OpenRows(); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: %s open rows %v, want %v", name, when, g, w)
		}
		if !reflect.DeepEqual(planes(t, got.sa), planes(t, want.sa)) {
			t.Fatalf("%s: %s the subarrays' bit planes differ", name, when)
		}
	}
	sameState("after construction")
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
		if err := c.OR(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if err := c.AND(a, dst, b); err != nil {
			t.Fatal(err)
		}
	}
	sameState("after an OR and an AND")
}

// checkMemo fills the case's calibration memo from one dirty pre-state,
// then requires a memoized construction on a clean and on another dirty
// instance of the same identity to equal the uncached probe on the same
// pre-state.
func checkMemo(t testing.TB, pc probeCase) {
	t.Helper()
	fillMod, fillSA := pc.instance(t, dirty2)
	fill, fillErr := NewComputerAt(fillMod, fillSA, pc.maxX, pc.env, pc.at)
	for _, pre := range []preState{clean, dirty} {
		name := fmt.Sprintf("%v/pre%d", pc, pre)
		wantMod, wantSA := pc.instance(t, pre)
		want, wantErr := buildComputer(wantMod, wantSA, pc.maxX, pc.env, pc.at, (*Computer).probeGroup)
		gotMod, gotSA := pc.instance(t, pre)
		if probe, err := unprobed(gotMod, gotSA, pc.maxX, pc.env, pc.at); err == nil {
			gotSA.Derived(probe.calibrationKey(), func() (any, int) {
				t.Fatalf("%s: the calibration memo missed after the fill", name)
				return nil, 0
			})
		}
		if pre == clean {
			// The filling construction ran the probe on another
			// pre-state: everything but its untouched rows matches.
			if fmt.Sprint(fillErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: filling construction error %v, want %v", name, fillErr, wantErr)
			}
			if fill != nil && (fmt.Sprint(fill.group) != fmt.Sprint(want.group) ||
				!fill.reliable.Equal(want.reliable) || fill.trial != want.trial || fill.maxX != want.maxX) {
				t.Fatalf("%s: the filling construction differs from the uncached probe", name)
			}
		}
		got, gotErr := NewComputerAt(gotMod, gotSA, pc.maxX, pc.env, pc.at)
		sameComputer(t, name, got, gotErr, want, wantErr)
	}
}

// memoEnvs are the operating points of the memo oracle: nominal, hot and
// aged with retention stress, disturbed at low VPP, and the stressed
// point with no reliable group.
var memoEnvs = []analog.Env{
	analog.NominalEnv(),
	{TempC: 85, VPP: 2.5, Aging: 10, Retention: 2},
	{TempC: 50, VPP: 2.1, Disturb: 30},
	stressedEnv,
}

// memoTimings are the APA timings of the memo oracle: the best MAJ point,
// a copy-mode point and a point with no tRP violation.
var memoTimings = []timing.APATimings{timing.BestMAJ(), timing.BestCopy(), {T1: 36, T2: 15}}

// TestCalibrationMemoMatchesProbe is the exactness bar of the calibration
// memo: every Table 2 and Samsung module at 64 and 200 columns, MAJ3 and
// MAJ9 bounds, four environments and three timing points, with the memo
// hit on a clean and on a dirty subarray. perfbench's output check runs
// the memo on both sides of its comparison, so it cannot catch a wrong
// memo; this test compares against the uncached probe.
func TestCalibrationMemoMatchesProbe(t *testing.T) {
	for _, cols := range []int{64, 200} {
		for _, spec := range memoSpecs(cols) {
			for _, maxX := range []int{3, 9} {
				for _, env := range memoEnvs {
					for _, at := range memoTimings {
						pc := probeCase{spec: spec, maxX: maxX, env: env, at: at}
						t.Run(spec.ID+"/"+pc.String(), func(t *testing.T) { checkMemo(t, pc) })
					}
				}
			}
		}
	}
}

// TestCalibrationMemoConcurrent builds computers on several instances of
// one identity at once, all missing the memo together: whichever
// construction publishes first, every one must equal the uncached probe.
// Run it with -race.
func TestCalibrationMemoConcurrent(t *testing.T) {
	spec := memoSpecs(64)[0]
	spec.Seed ^= 0xc0c0
	pc := probeCase{spec: spec, maxX: 5, env: analog.NominalEnv(), at: timing.BestMAJ()}
	const n = 4
	got := make([]*Computer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		mod, sa := pc.instance(t, clean)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = NewComputerAt(mod, sa, pc.maxX, pc.env, pc.at)
		}()
	}
	wg.Wait()
	for i := range got {
		wantMod, wantSA := pc.instance(t, clean)
		want, wantErr := buildComputer(wantMod, wantSA, pc.maxX, pc.env, pc.at, (*Computer).probeGroup)
		sameComputer(t, fmt.Sprintf("%v/instance%d", pc, i), got[i], errs[i], want, wantErr)
	}
}

// TestCalibrationKeySeparatesInputs builds computers on one identity at
// a base operating point and then at points that each change one probe
// input — every environment field, each APA timing and the width bound —
// and requires each to equal the uncached probe: a key missing an input
// would serve the base point's calibration there.
func TestCalibrationKeySeparatesInputs(t *testing.T) {
	spec := memoSpecs(64)[0]
	spec.Seed ^= 0x6e75
	base := probeCase{spec: spec, maxX: 7, env: analog.Env{TempC: 50, VPP: 2.5}, at: timing.BestMAJ()}
	cases := []probeCase{base}
	for _, vary := range []func(*probeCase){
		func(pc *probeCase) { pc.env.TempC = 90 },
		func(pc *probeCase) { pc.env.VPP = 1.8 },
		func(pc *probeCase) { pc.env.Aging = 30 },
		func(pc *probeCase) { pc.env.Disturb = 60 },
		func(pc *probeCase) { pc.env.Retention = 40 },
		func(pc *probeCase) { pc.at.T1 = 2.5 },
		func(pc *probeCase) { pc.at.T2 = 1 },
		func(pc *probeCase) { pc.maxX = 3 },
	} {
		pc := base
		vary(&pc)
		cases = append(cases, pc)
	}
	for _, pc := range cases {
		gotMod, gotSA := pc.instance(t, dirty)
		got, gotErr := NewComputerAt(gotMod, gotSA, pc.maxX, pc.env, pc.at)
		wantMod, wantSA := pc.instance(t, dirty)
		want, wantErr := buildComputer(wantMod, wantSA, pc.maxX, pc.env, pc.at, (*Computer).probeGroup)
		sameComputer(t, pc.String(), got, gotErr, want, wantErr)
	}
}
