package core

import (
	"fmt"

	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/timing"
)

// Trial-plane kernels: the packed successors of the scalar per-trial
// loops (kept in scalar_test.go as the differential oracle). Each kernel asks the subarray for the
// trial-invariant plan of its T trials (dram.PlanAPA), evaluates the
// expensive resolution once per distinct asserted set, materializes the
// per-trial outcomes as bit-planes, and reduces the paper's all-trials
// success criterion with word-wise plane reduction: a cell is stable iff
// its failure bit is clear in the OR across trial planes (the De Morgan
// dual of ANDing success planes).
//
// Bit-identity with the scalar path holds because every draw the
// simulator makes is a stateless hash of structural coordinates — the
// plan draws exactly the values the scalar path would draw for the same
// (row, column, trial), so regrouping the loops cannot change any bit
// (see DESIGN.md §13). The kernels never mutate array state beyond the
// initial row writes; all trials observe the same initial state, exactly
// as the scalar path re-establishes it at every trial start.

// inSet reports whether row r is in the (≤ 32-entry) asserted set.
func inSet(rows []int, r int) bool {
	for _, x := range rows {
		if x == r {
			return true
		}
	}
	return false
}

// failPlanes materializes one asserted set's share-mode trial outcomes as
// planes, XORs each against want, and ORs the planes into a combined
// any-trial failure mask written to dst.
func failPlanes(a *Arena, sa *dram.Subarray, plan *dram.APAPlan, set dram.AssertSet,
	det, meta, want, dst bitvec.Vec) {

	ps := a.planeStack(len(set.Trials))
	for k, trial := range set.Trials {
		pl := ps.Plane(k)
		sa.ShareOut(pl, det, meta, plan, trial)
		pl.Xor(pl, want)
	}
	ps.ReduceOr(dst)
}

// manyRowActivationPlanes is the trial-plane ManyRowActivation kernel.
// The WR failure of an asserted row r is wrFail(r) & (sensed ^ wrData):
// a weak cell keeps the post-APA sensed value, which is wrong unless it
// happens to equal the WR bit. Rows not asserted in a trial keep the
// initial pattern, whose complement is the WR data — every cell fails.
func (t *Tester) manyRowActivationPlanes(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {

	cols := sa.Cols()
	a := t.arenas.get(cols)
	defer t.arenas.put(a)

	seed := t.groupSeed(sa, g)
	initData := a.vec()
	p.FillRowInto(initData, seed, 0)
	wrData := a.vec()
	wrData.Not(initData)

	opts := dram.APAOptions{Timings: at, Env: t.env, PatternCoupling: p.CouplingFactor()}
	plan, err := sa.PlanAPA(g.RF, g.RS, t.trials, opts)
	if err != nil {
		return SuccessResult{}, err
	}
	for _, r := range g.Rows {
		if err := sa.WriteRowVec(r, initData); err != nil {
			return SuccessResult{}, err
		}
	}

	fails := make([]bitvec.Vec, len(g.Rows))
	for i := range fails {
		fails[i] = a.vec()
	}
	det, meta, diff, wf := a.vec(), a.vec(), a.vec(), a.vec()

	for _, set := range plan.Sets {
		if plan.Mode == dram.ModeShare {
			if plan.Viable {
				sa.ShareResolve(det, meta, set, plan, opts)
			}
			failPlanes(a, sa, plan, set, det, meta, wrData, diff)
		} else {
			// Single and copy modes leave every cell at the initial
			// pattern before the WR, so sensed ^ wrData is all-ones and
			// only the weak-write mask decides failure.
			diff.Fill(true)
		}
		for i, r := range g.Rows {
			if !inSet(set.Rows, r) {
				fails[i].Fill(true)
				continue
			}
			sa.WRFail(wf, r, len(set.Rows))
			wf.And(wf, diff)
			fails[i].Or(fails[i], wf)
		}
	}

	stable := 0
	for _, f := range fails {
		stable += cols - f.PopCount()
	}
	return SuccessResult{Cells: len(g.Rows) * cols, Stable: stable, Viable: true}, nil
}

// majPlanes is the trial-plane MAJ kernel. Share mode senses the
// charge-shared majority into every asserted row (read back at RF);
// single and copy modes never alter RF's readout, so their outcome is
// trial-invariant: the resolved initial RF data versus the expected
// majority.
func (t *Tester) majPlanes(sa *dram.Subarray, g bender.Group, x int,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {

	if x < 3 || x%2 == 0 {
		return SuccessResult{}, fmt.Errorf("core: MAJ width %d must be odd and >= 3", x)
	}
	n := g.N()
	if n < x {
		return SuccessResult{}, fmt.Errorf("core: MAJ%d needs at least %d rows, group has %d", x, x, n)
	}
	copies := n / x
	cols := sa.Cols()
	seed := t.groupSeed(sa, g)
	a := t.arenas.get(cols)
	defer t.arenas.put(a)

	operands := make([]bitvec.Vec, x)
	for j := range operands {
		operands[j] = a.vec()
		p.FillRowInto(operands[j], seed, j)
	}
	expected := a.vec()
	bitvec.Majority(expected, operands)

	solid0 := a.vec()
	solid1 := a.vec()
	solid1.Fill(true)
	fracOK := t.mod.Spec().Profile.FracSupported

	// Row assignment, written once: replicated operands round-robin, then
	// neutral leftovers (identical to the scalar path's per-trial writes).
	for i, r := range g.Rows {
		switch {
		case i < copies*x:
			if err := sa.WriteRowVec(r, operands[i%x]); err != nil {
				return SuccessResult{}, err
			}
		case fracOK:
			if err := sa.SetFracRow(r); err != nil {
				return SuccessResult{}, err
			}
		default:
			bits := solid0
			if (i-copies*x)%2 == 1 {
				bits = solid1
			}
			if err := sa.WriteRowVec(r, bits); err != nil {
				return SuccessResult{}, err
			}
		}
	}

	opts := dram.APAOptions{
		Timings:         at,
		Env:             t.env,
		PatternCoupling: p.CouplingFactor(),
		MAJ:             &dram.MAJSpec{X: x, Copies: copies},
	}
	plan, err := sa.PlanAPA(g.RF, g.RS, t.trials, opts)
	if err != nil {
		return SuccessResult{}, err
	}

	failAcc := a.vec()
	if plan.Mode == dram.ModeShare {
		det, meta, diff := a.vec(), a.vec(), a.vec()
		for _, set := range plan.Sets {
			if plan.Viable {
				sa.ShareResolve(det, meta, set, plan, opts)
			}
			failPlanes(a, sa, plan, set, det, meta, expected, diff)
			failAcc.Or(failAcc, diff)
		}
	} else {
		// Single mode opens only RS; copy mode latches RF's own data back
		// into RF. Either way RF reads back its resolved initial data.
		got := a.vec()
		if err := sa.ReadRowInto(got, g.RF); err != nil {
			return SuccessResult{}, err
		}
		failAcc.Xor(got, expected)
	}
	return SuccessResult{Cells: cols, Stable: cols - failAcc.PopCount(), Viable: plan.Viable}, nil
}

// multiRowCopyPlanes is the trial-plane MultiRowCopy kernel. In copy mode
// an asserted destination fails where its weak-copy mask keeps an initial
// bit that differs from the source; unasserted (or single-mode)
// destinations keep their full initial pattern.
func (t *Tester) multiRowCopyPlanes(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {

	cols := sa.Cols()
	seed := t.groupSeed(sa, g)
	a := t.arenas.get(cols)
	defer t.arenas.put(a)

	src := a.vec()
	p.FillRowInto(src, seed, 0)
	srcInv := a.vec()
	srcInv.Not(src)

	dests := make([]int, 0, len(g.Rows)-1)
	for _, r := range g.Rows {
		if r != g.RF {
			dests = append(dests, r)
		}
	}
	destInit := make([]bitvec.Vec, len(dests))
	for i := range destInit {
		if p == dram.PatternRandom {
			destInit[i] = a.vec()
			p.FillRowInto(destInit[i], seed, i+1)
		} else {
			destInit[i] = srcInv
		}
	}

	opts := dram.APAOptions{Timings: at, Env: t.env, PatternCoupling: p.CouplingFactor()}
	plan, err := sa.PlanAPA(g.RF, g.RS, t.trials, opts)
	if err != nil {
		return SuccessResult{}, err
	}
	for i, r := range dests {
		if err := sa.WriteRowVec(r, destInit[i]); err != nil {
			return SuccessResult{}, err
		}
	}
	if err := sa.WriteRowVec(g.RF, src); err != nil {
		return SuccessResult{}, err
	}

	fails := make([]bitvec.Vec, len(dests))
	for i := range fails {
		fails[i] = a.vec()
	}
	det, meta, diff, cf := a.vec(), a.vec(), a.vec(), a.vec()

	for _, set := range plan.Sets {
		switch plan.Mode {
		case dram.ModeCopy:
			pTrue, pFalse := sa.CopyFailProbs(len(set.Rows), plan, opts)
			for i, d := range dests {
				diff.Xor(destInit[i], src)
				if inSet(set.Rows, d) {
					sa.CopyFail(cf, d, src, pTrue, pFalse)
					cf.And(cf, diff)
					fails[i].Or(fails[i], cf)
				} else {
					fails[i].Or(fails[i], diff)
				}
			}
		case dram.ModeSingle:
			for i := range dests {
				diff.Xor(destInit[i], src)
				fails[i].Or(fails[i], diff)
			}
		case dram.ModeShare:
			if plan.Viable {
				sa.ShareResolve(det, meta, set, plan, opts)
			}
			failPlanes(a, sa, plan, set, det, meta, src, diff)
			for i, d := range dests {
				if inSet(set.Rows, d) {
					fails[i].Or(fails[i], diff)
					continue
				}
				cf.Xor(destInit[i], src)
				fails[i].Or(fails[i], cf)
			}
		}
	}

	stable := 0
	for _, f := range fails {
		stable += cols - f.PopCount()
	}
	return SuccessResult{Cells: len(dests) * cols, Stable: stable, Viable: true}, nil
}
