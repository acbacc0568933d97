package core

import (
	"fmt"

	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/timing"
)

// The scalar per-trial kernels are the executable specification of the
// three operation families: each trial re-initializes the group's rows,
// issues the APA through the subarray's command interface and reads every
// checked row back. The trial-plane kernels in planes.go must reproduce
// their SuccessResults bit for bit; differential_test.go holds them to it.

// manyRowActivationScalar is the per-trial reference implementation of
// ManyRowActivation.
func (t *Tester) manyRowActivationScalar(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {

	cols := sa.Cols()
	// §3.2: the subarray is initialized with one predefined data pattern
	// and the WR carries a different one — the complement, so that a cell
	// that misses the overdrive is always detected as a failure.
	seed := t.groupSeed(sa, g)
	initData := p.FillRowVec(seed, 0, cols)
	wrData := bitvec.New(cols)
	wrData.Not(initData)
	failed := newFailSet(len(g.Rows), cols)
	got := bitvec.New(cols)

	for trial := 0; trial < t.trials; trial++ {
		for _, r := range g.Rows {
			if err := sa.WriteRowVec(r, initData); err != nil {
				return SuccessResult{}, err
			}
		}
		if _, err := sa.APA(g.RF, g.RS, dram.APAOptions{
			Timings:         at,
			Env:             t.env,
			Trial:           trial,
			PatternCoupling: p.CouplingFactor(),
		}); err != nil {
			return SuccessResult{}, err
		}
		if err := sa.WriteOpenRowsVec(wrData); err != nil {
			return SuccessResult{}, err
		}
		sa.Precharge()
		for i, r := range g.Rows {
			if err := sa.ReadRowInto(got, r); err != nil {
				return SuccessResult{}, err
			}
			failed.accumulate(i, got, wrData)
		}
	}
	return SuccessResult{Cells: len(g.Rows) * cols, Stable: failed.stable(), Viable: true}, nil
}

// majScalar is the per-trial reference implementation of MAJ.
func (t *Tester) majScalar(sa *dram.Subarray, g bender.Group, x int,
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

	// Operand data and the expected bitwise majority, computed with the
	// packed popcount-threshold kernel (64 columns per word).
	operands := make([]bitvec.Vec, x)
	for j := range operands {
		operands[j] = p.FillRowVec(seed, j, cols)
	}
	expected := bitvec.New(cols)
	bitvec.Majority(expected, operands)

	solid0 := bitvec.New(cols)
	solid1 := bitvec.New(cols)
	solid1.Fill(true)

	fracOK := t.mod.Spec().Profile.FracSupported
	failed := newFailSet(1, cols)
	got := bitvec.New(cols)
	viable := true

	for trial := 0; trial < t.trials; trial++ {
		// Row assignment: the first copies*x rows hold the replicated
		// operands round-robin; the leftover rows are neutral.
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
				// Mfr. M fallback (footnote 5): balanced solid rows that
				// the biased sense amplifiers cancel out.
				bits := solid0
				if (i-copies*x)%2 == 1 {
					bits = solid1
				}
				if err := sa.WriteRowVec(r, bits); err != nil {
					return SuccessResult{}, err
				}
			}
		}
		res, err := sa.APA(g.RF, g.RS, dram.APAOptions{
			Timings:         at,
			Env:             t.env,
			Trial:           trial,
			PatternCoupling: p.CouplingFactor(),
			MAJ:             &dram.MAJSpec{X: x, Copies: copies},
		})
		if err != nil {
			return SuccessResult{}, err
		}
		viable = viable && res.Viable
		sa.Precharge()
		if err := sa.ReadRowInto(got, g.RF); err != nil {
			return SuccessResult{}, err
		}
		failed.accumulate(0, got, expected)
	}
	return SuccessResult{Cells: cols, Stable: failed.stable(), Viable: viable}, nil
}

// multiRowCopyScalar is the per-trial reference implementation of
// MultiRowCopy.
func (t *Tester) multiRowCopyScalar(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {

	cols := sa.Cols()
	seed := t.groupSeed(sa, g)
	// §3.4: the source row carries the tested data pattern (Fig. 11's
	// "copying all-1s to 31 rows" series names the *copied* data) and the
	// destinations are initialized with a different pattern. For solid
	// patterns that is the complement, so a cell the copy misses is always
	// detected; for Random, each destination gets its own random row (the
	// §3.1 random methodology).
	src := p.FillRowVec(seed, 0, cols)
	srcInv := bitvec.New(cols)
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
			destInit[i] = p.FillRowVec(seed, i+1, cols)
		} else {
			destInit[i] = srcInv
		}
	}
	failed := newFailSet(len(dests), cols)
	got := bitvec.New(cols)

	for trial := 0; trial < t.trials; trial++ {
		for i, r := range dests {
			if err := sa.WriteRowVec(r, destInit[i]); err != nil {
				return SuccessResult{}, err
			}
		}
		if err := sa.WriteRowVec(g.RF, src); err != nil {
			return SuccessResult{}, err
		}
		if _, err := sa.APA(g.RF, g.RS, dram.APAOptions{
			Timings:         at,
			Env:             t.env,
			Trial:           trial,
			PatternCoupling: p.CouplingFactor(),
		}); err != nil {
			return SuccessResult{}, err
		}
		sa.Precharge()
		for i, r := range dests {
			if err := sa.ReadRowInto(got, r); err != nil {
				return SuccessResult{}, err
			}
			failed.accumulate(i, got, src)
		}
	}
	return SuccessResult{Cells: len(dests) * cols, Stable: failed.stable(), Viable: true}, nil
}

// failSet tracks which cells have failed any trial, as one packed failure
// vector per characterized row: accumulating a trial is one Xor+Or pass
// over the packed words rather than a per-cell comparison loop.
type failSet struct {
	rows []bitvec.Vec
	diff bitvec.Vec
}

func newFailSet(rows, cols int) *failSet {
	s := &failSet{rows: make([]bitvec.Vec, rows), diff: bitvec.New(cols)}
	for i := range s.rows {
		s.rows[i] = bitvec.New(cols)
	}
	return s
}

// accumulate marks every cell of row i where got differs from want.
func (s *failSet) accumulate(i int, got, want bitvec.Vec) {
	s.diff.Xor(got, want)
	s.rows[i].Or(s.rows[i], s.diff)
}

// stable returns the number of cells that were correct in every trial.
func (s *failSet) stable() int {
	n := 0
	for _, r := range s.rows {
		n += r.Len() - r.PopCount()
	}
	return n
}
