package dram

import (
	"reflect"
	"testing"

	"repro/internal/analog"
	"repro/internal/bitvec"
)

// newTestModule builds a module with a caller-chosen seed so table-registry
// tests control whether they hit an existing entry.
func newTestModule(t *testing.T, profile Profile, seed uint64) *Module {
	t.Helper()
	spec := NewSpec("tables-test", profile, seed)
	spec.Columns = 256
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTablesSharedAcrossInstances(t *testing.T) {
	m1 := newTestModule(t, ProfileH, 0xfeed0001)
	m2 := newTestModule(t, ProfileH, 0xfeed0001)
	sa1, err := m1.Subarray(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sa2, err := m2.Subarray(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sa1.tab != sa2.tab {
		t.Fatal("identical module identities should share static tables")
	}
	// Lazy per-cell rows are derived once and shared by pointer.
	w1 := sa1.wbaseRow(7)
	w2 := sa2.wbaseRow(7)
	if &w1[0] != &w2[0] {
		t.Fatal("wbase row not shared between instances")
	}
}

func TestTablesDistinguishIdentity(t *testing.T) {
	base, err := newTestModule(t, ProfileH, 0xfeed0002).Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	otherSeed, err := newTestModule(t, ProfileH, 0xfeed0003).Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.tab == otherSeed.tab {
		t.Fatal("different seeds must not share tables")
	}
	otherSA, err := newTestModule(t, ProfileH, 0xfeed0002).Subarray(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.tab == otherSA.tab {
		t.Fatal("different subarray coordinates must not share tables")
	}
	params := analog.DefaultParams()
	params.CellCapSigma *= 2
	spec := NewSpec("tables-test", ProfileH, 0xfeed0002)
	spec.Columns = 256
	mp, err := NewModule(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	otherParams, err := mp.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.tab == otherParams.tab {
		t.Fatal("different electrical params must not share tables")
	}
}

// TestTableDerivationsPinned pins the reuse mechanism itself: building a
// second identical module instance and running the same operation must not
// re-derive any static table. This is the property scenario sharding and
// warmpool recycling rely on for the speedup.
func TestTableDerivationsPinned(t *testing.T) {
	run := func(m *Module) {
		sa, err := m.Subarray(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		data := PatternRandom.FillRowVec(9, 0, sa.Cols())
		for r := 0; r < 4; r++ {
			if err := sa.WriteRowVec(r, data); err != nil {
				t.Fatal(err)
			}
		}
		// Share mode touches wbase rows; copy mode touches weak-copy rows;
		// WR touches weak-write rows.
		if _, err := sa.APA(0, 384, apaOpts(6, 3, 0)); err != nil {
			t.Fatal(err)
		}
		if err := sa.WriteOpenRowsVec(data); err != nil {
			t.Fatal(err)
		}
		sa.Precharge()
		if _, err := sa.APA(0, 384, apaOpts(40, 3, 0)); err != nil {
			t.Fatal(err)
		}
		sa.Precharge()
	}

	m1 := newTestModule(t, ProfileH, 0xfeed0004)
	run(m1)
	statics0, cells0 := TableDerivations()
	if statics0 == 0 || cells0 == 0 {
		t.Fatal("first run should have derived tables")
	}

	// A fresh instance with the same identity: zero new derivations.
	m2 := newTestModule(t, ProfileH, 0xfeed0004)
	run(m2)
	statics1, cells1 := TableDerivations()
	if statics1 != statics0 || cells1 != cells0 {
		t.Fatalf("identical rerun re-derived tables: statics %d→%d, cell rows %d→%d",
			statics0, statics1, cells0, cells1)
	}

	// A different identity must derive its own.
	m3 := newTestModule(t, ProfileH, 0xfeed0005)
	run(m3)
	statics2, cells2 := TableDerivations()
	if statics2 == statics1 || cells2 == cells1 {
		t.Fatal("distinct identity should derive fresh tables")
	}
}

// TestPlanAPAMatchesScalar checks the plan's asserted-set partition and
// mode against per-trial scalar APA calls on an identically prepared
// subarray.
func TestPlanAPAMatchesScalar(t *testing.T) {
	const trials = 16
	for _, tc := range []struct {
		name   string
		t1, t2 float64
		first  int
	}{
		{"share", 6, 3, 0},
		{"copy", 40, 3, 0},
		{"single", 6, 30, 0},
		{"share-offset", 6, 3, 1203},
		{"share-marginal", 1.5, 1.3, 40},
		{"copy-offset", 40, 3, 57},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sa := testSubarray(t, ProfileH)
			data := PatternRandom.FillRowVec(3, 0, sa.Cols())
			for r := 0; r < 8; r++ {
				if err := sa.WriteRowVec(r, data); err != nil {
					t.Fatal(err)
				}
			}
			// A plan starts at opts.Trial: the sweeps plan from trial 0, a
			// calibration probe from wherever its trial counter stands.
			first := tc.first
			plan, err := sa.PlanAPA(0, 384, trials, apaOpts(tc.t1, tc.t2, first))
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Trials(); got != trials {
				t.Fatalf("plan covers %d trials, want %d", got, trials)
			}
			// Invert the partition: trial -> asserted rows.
			byTrial := make(map[int][]int)
			for _, set := range plan.Sets {
				for _, trial := range set.Trials {
					if _, dup := byTrial[trial]; dup {
						t.Fatalf("trial %d appears in two sets", trial)
					}
					byTrial[trial] = set.Rows
				}
			}
			for trial := first; trial < first+trials; trial++ {
				res, err := sa.APA(0, 384, apaOpts(tc.t1, tc.t2, trial))
				if err != nil {
					t.Fatal(err)
				}
				sa.Precharge()
				if res.Mode != plan.Mode {
					t.Fatalf("trial %d: scalar mode %v, plan mode %v", trial, res.Mode, plan.Mode)
				}
				if res.Mode == ModeShare && res.Viable != plan.Viable {
					t.Fatalf("trial %d: scalar viable %v, plan viable %v", trial, res.Viable, plan.Viable)
				}
				if !reflect.DeepEqual(byTrial[trial], res.Asserted) {
					t.Fatalf("trial %d: plan set %v, scalar asserted %v", trial, byTrial[trial], res.Asserted)
				}
				// Re-prepare rows mutated by the scalar call.
				for _, r := range res.Asserted {
					if err := sa.WriteRowVec(r, data); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestShareOutMatchesScalarAPA drives the plane primitives by hand for a
// share-mode plan and compares each trial's sensing outcome with the
// scalar path's array state.
func TestShareOutMatchesScalarAPA(t *testing.T) {
	const trials = 8
	sa := testSubarray(t, ProfileH)
	rows := []int{0, 384} // rf and rs; the H decoder activates more
	opts := apaOpts(6, 3, 0)

	fill := func(s *Subarray) {
		for ord, r := range rows {
			if err := s.FillRow(r, PatternRandom, 11, ord); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(sa)
	plan, err := sa.PlanAPA(0, 384, trials, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeShare {
		t.Fatalf("mode %v, want share", plan.Mode)
	}

	scalar := testSubarray(t, ProfileH)
	out := bitvec.New(sa.Cols())
	det := bitvec.New(sa.Cols())
	meta := bitvec.New(sa.Cols())
	got := bitvec.New(sa.Cols())
	for _, set := range plan.Sets {
		// Plane side: resolve the set once against pristine contents.
		fill(sa)
		sa.ShareResolve(det, meta, set, plan, opts)
		for _, trial := range set.Trials {
			sa.ShareOut(out, det, meta, plan, trial)

			// Scalar side: fresh contents, same trial.
			fill(scalar)
			o := opts
			o.Trial = trial
			res, err := scalar.APA(0, 384, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := scalar.ReadRowInto(got, res.Asserted[0]); err != nil {
				t.Fatal(err)
			}
			scalar.Precharge()
			if !out.Equal(got) {
				t.Fatalf("trial %d: plane out != scalar sensed row", trial)
			}
		}
	}
}

// TestMemoResetRefundsCharge checks that one 64-column table set's
// registry charge equals the bytes it holds: after attachment, after
// per-cell rows of every kind and a jitter run are published, and after
// its coupling rows and coin planes pass couplingCacheMax and
// metaPlaneMax, so each memo map resets once and refunds what it drops.
func TestMemoResetRefundsCharge(t *testing.T) {
	spec := NewSpec("tables-test", ProfileH, 0xfeed00c0)
	spec.Columns = 64
	m, err := NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := sa.tab
	check := func(when string) {
		t.Helper()
		held := tab.eagerBytes()
		for i := range tab.cells {
			c := &tab.cells[i]
			for k := range c.rows {
				if r := c.rows[k].Load(); r != nil {
					held += rowHeader + 8*cap(*r)
				}
			}
			held += 8 * len(c.jit)
		}
		held += 8*sa.cols*len(tab.couplingNorms) + 8*sa.words*len(tab.metaPlanes)
		tableReg.Lock()
		defer tableReg.Unlock()
		if tab.evicted {
			t.Fatal("table set evicted mid-test")
		}
		if tab.charged != int64(held) {
			t.Fatalf("%s: set charged %d bytes, holds %d", when, tab.charged, held)
		}
	}
	check("after attachment")
	for row := 0; row < 3; row++ {
		for kind := 0; kind < rowKinds; kind++ {
			sa.cellRow(row, kind)
		}
		tab.jitRow(sa, row, 0, 5)
	}
	check("after per-cell rows")
	for k := uint64(0); k <= couplingCacheMax; k++ {
		tab.couplingRow(sa.cols, k)
	}
	for k := uint64(0); k <= metaPlaneMax; k++ {
		tab.metaPlane(sa, k, 0, false)
	}
	if len(tab.couplingNorms) != 1 || len(tab.metaPlanes) != 1 {
		t.Fatalf("memo maps hold %d rows and %d planes, want 1 each after the reset",
			len(tab.couplingNorms), len(tab.metaPlanes))
	}
	check("after the memo resets")
}
