package dram

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// Trial-plane planning: the characterization kernels repeat one APA
// experiment for T trials, but almost every draw the subarray makes is
// trial-invariant — static process variation, decoder activation, mode
// selection, group viability, weak-cell failure masks, the whole
// charge-share accumulation. The only per-trial draws are the wordline
// assertion jitter (which partitions trials into a handful of distinct
// asserted sets) and the metastable resolutions (cheap word-op overlays).
//
// PlanAPA evaluates the trial-invariant part once and groups the T trials
// by their asserted set; the plane primitives below then let a kernel
// evaluate each distinct set once and materialize all of its trials as
// bit-planes, reducing the all-trials success criterion to word-wise AND
// across planes. The draws are stateless hashes of structural
// coordinates, so the restructured evaluation order produces bit-exact
// scalar results.

// AssertSet is one distinct wordline-assertion outcome and the trials
// that drew it.
type AssertSet struct {
	// Rows is the asserted row set (sorted; shares the plan's backing
	// storage — read-only).
	Rows []int
	// Trials lists the trial indices that drew this set, ascending.
	Trials []int
}

// APAPlan is the trial-invariant decomposition of T repetitions of one
// APA sequence. It is derived without touching array state; the kernels
// replay it against whatever row contents each repetition starts from.
type APAPlan struct {
	Mode   Mode
	RF, RS int
	// T is the quantized timing of the sequence.
	T timing.APATimings
	// GroupKey seeds the group's per-trial metastable draws.
	GroupKey uint64
	// Activated is the decoder's full activation set (read-only, shared
	// with the subarray's caches).
	Activated []int
	// Viable is the share-mode group viability (true in other modes).
	Viable bool
	// Sets partitions the trials by asserted set, in order of first
	// appearance. ModeSingle plans always have exactly one set {RS}.
	Sets []AssertSet
}

// Trials returns the planned trial count.
func (p *APAPlan) Trials() int {
	n := 0
	for _, s := range p.Sets {
		n += len(s.Trials)
	}
	return n
}

// PlanAPA computes the trial-plane plan of trials repetitions of
// APA(rf, rs, opts) without mutating the subarray's array state. opts.Trial
// is the first trial: the plan covers trials opts.Trial ..
// opts.Trial+trials-1, and the sets' Trials list those absolute indices.
// Every draw matches what the scalar APA path would draw for the same
// trial index. The returned plan aliases subarray-owned scratch and is
// valid until the next PlanAPA call on this subarray.
func (s *Subarray) PlanAPA(rf, rs, trials int, opts APAOptions) (*APAPlan, error) {
	if err := s.checkRow(rf); err != nil {
		return nil, err
	}
	if err := s.checkRow(rs); err != nil {
		return nil, err
	}
	if trials < 1 {
		return nil, fmt.Errorf("dram: PlanAPA needs at least 1 trial, got %d", trials)
	}
	if opts.Trial < 0 {
		return nil, fmt.Errorf("dram: PlanAPA first trial %d is negative", opts.Trial)
	}
	first := opts.Trial
	t := opts.Timings.Quantized()
	jedec := timing.DDR4()
	plan := &s.planBuf
	*plan = APAPlan{
		RF: rf, RS: rs, T: t,
		GroupKey: s.key2(uint64(rf), uint64(rs)),
		Viable:   true,
	}
	if cap(s.planTrials) < trials {
		s.planTrials = make([]int, trials)
	}
	trialsBuf := s.planTrials[:trials]

	if !t.ViolatesTRP(jedec) || s.mod.spec.Profile.APAGuarded {
		plan.Mode = ModeSingle
		if cap(s.planRows) < 1 {
			s.planRows = make([]int, 0, 1)
		}
		rows := append(s.planRows[:0], rs)
		for i := range trialsBuf {
			trialsBuf[i] = first + i
		}
		plan.Activated = rows
		if cap(s.planSets) < 1 {
			s.planSets = make([]AssertSet, 1)
		}
		s.planSets = s.planSets[:1]
		s.planSets[0] = AssertSet{Rows: rows, Trials: trialsBuf}
		plan.Sets = s.planSets
		return plan, nil
	}

	activated, err := s.activatedRows(rf, rs)
	if err != nil {
		return nil, err
	}
	plan.Activated = activated
	n := len(activated)

	// Partition trials by their jitter-drawn asserted set, encoded as a
	// bitmask over activated indices (the decoder asserts ≤ 32 wordlines).
	// The distinct-set count is tiny, so first-seen dedup is a linear
	// scan over scratch instead of a map.
	if cap(s.planMasks) < trials {
		s.planMasks = make([]uint64, trials)
	}
	masks := s.planMasks[:trials]
	for trial := range masks {
		masks[trial] = 0
	}
	// Rows outer, trials inner: the settling thresholds are trial-invariant,
	// so hoist them and replay only the cached per-trial jitter draws —
	// the same race rowAsserts decides, evaluated once per row. The latch
	// mean is row-invariant too, and LatchMean + LatchSettleSigma·norm is
	// LatchThreshold's own float sequence. Params are read through a
	// pointer so no row copies the struct. Rows whose race no jitter draw
	// can flip (settleRace) are settled without drawing; the rest fetch
	// their windows under one table lock.
	params := &s.mod.params
	latchMean := params.LatchMean(n, opts.Env)
	sigma := params.AssertTransientSigma
	jmax := math.Abs(sigma) * xrand.NormMax
	total := t.Total()
	var drawn uint64 // activated indices whose race the jitter decides
	for i, r := range activated {
		race := raceAlways
		if r != rf {
			latchThresh := latchMean + params.LatchSettleSigma*s.tab.latchNorm[r]
			race = settleRace(t.T2, total, latchThresh, s.tab.wlThresh[r], jmax)
		}
		switch race {
		case raceAlways:
			for trial := range masks {
				masks[trial] |= 1 << uint(i)
			}
		case raceDrawn:
			drawn |= 1 << uint(i)
		}
	}
	var wins [64][]float64 // the 64-bit masks bound the activation set
	s.tab.jitWindows(s, activated, drawn, first, trials, wins[:n])
	for i, r := range activated {
		if drawn>>uint(i)&1 == 0 {
			continue
		}
		latchThresh := latchMean + params.LatchSettleSigma*s.tab.latchNorm[r]
		wlThresh := s.tab.wlThresh[r]
		for trial, jn := range wins[i] {
			jit := sigma * jn
			if t.T2+jit >= latchThresh && total+jit >= wlThresh {
				masks[trial] |= 1 << uint(i)
			}
		}
	}
	uniq, counts := s.planUniq[:0], s.planCounts[:0]
	for trial := 0; trial < trials; trial++ {
		mask := masks[trial]
		found := false
		for k, m := range uniq {
			if m == mask {
				counts[k]++
				found = true
				break
			}
		}
		if !found {
			uniq = append(uniq, mask)
			counts = append(counts, 1)
		}
	}
	s.planUniq, s.planCounts = uniq, counts

	totalRows := 0
	for _, m := range uniq {
		totalRows += bits.OnesCount64(m)
	}
	if cap(s.planRows) < totalRows {
		s.planRows = make([]int, totalRows)
	}
	rowsBuf := s.planRows[:totalRows]
	if cap(s.planSets) < len(uniq) {
		s.planSets = make([]AssertSet, len(uniq))
	}
	sets := s.planSets[:len(uniq)]
	toff, roff := 0, 0
	for k, m := range uniq {
		rows := rowsBuf[roff:roff]
		for j, r := range activated {
			if m>>uint(j)&1 == 1 {
				rows = append(rows, r)
			}
		}
		roff += len(rows)
		sets[k] = AssertSet{Rows: rows, Trials: trialsBuf[toff : toff : toff+counts[k]]}
		toff += counts[k]
	}
	for i, m := range masks {
		for k := range uniq {
			if uniq[k] == m {
				sets[k].Trials = append(sets[k].Trials, first+i)
				break
			}
		}
	}
	s.planSets = sets
	plan.Sets = sets

	if t.T1 >= s.mod.params.SenseLatchTime {
		plan.Mode = ModeCopy
	} else {
		plan.Mode = ModeShare
		plan.Viable = s.shareViable(rf, rs, t, opts)
	}
	return plan, nil
}

// ShareResolve computes the trial-invariant det/meta decomposition of
// share-mode sensing for one asserted set, reading the subarray's current
// row contents without modifying them. det receives the bits that resolve
// deterministically to 1; meta the columns inside the reliable sensing
// margin, which flip per trial (see ShareOut).
func (s *Subarray) ShareResolve(det, meta bitvec.Vec, set AssertSet, plan *APAPlan, opts APAOptions) {
	s.shareDetMeta(det.Words(), meta.Words(), plan.RF, set.Rows, plan.T, opts, plan.GroupKey)
}

// ShareOut materializes one trial's share-mode sensing outcome into out:
// the det/meta decomposition overlaid with the trial's metastable coin
// flips, or — for non-viable groups — the fully metastable resolution
// (det/meta are ignored there).
func (s *Subarray) ShareOut(out, det, meta bitvec.Vec, plan *APAPlan, trial int) {
	if !plan.Viable {
		s.metaResolve(out.Words(), plan.GroupKey, trial)
		return
	}
	s.metaOverlay(out.Words(), det.Words(), meta.Words(), plan.GroupKey, trial)
}

// WRFail writes row's weak-write failure mask under a WR overdriving
// nAsserted open rows: bit c set means cell c misses the write. Static —
// identical for every trial of the plan.
func (s *Subarray) WRFail(fail bitvec.Vec, row, nAsserted int) {
	s.wrFailMask(fail.Words(), row, nAsserted)
}

// CopyFailProbs returns the per-driven-bit-value failure probabilities
// of the plan's latched copy into nAsserted open rows. They depend only
// on the source row's current contents and the set size, so a caller
// computes them once per asserted set and passes them to CopyFail for
// each destination row.
func (s *Subarray) CopyFailProbs(nAsserted int, plan *APAPlan, opts APAOptions) (pTrue, pFalse float64) {
	return s.copyProbs(plan.RF, nAsserted, plan.T, opts)
}

// CopyFail writes row's copy-failure mask for a latched copy of src with
// the set's CopyFailProbs: bit c set means cell c keeps its old charge
// instead of taking src's bit. src must be the resolved source-row data
// (the sense amplifiers' latched value). Static per (row, set).
func (s *Subarray) CopyFail(fail bitvec.Vec, row int, src bitvec.Vec, pTrue, pFalse float64) {
	u, floor := s.weakRow(row, rowWeakCopy)
	s.weakMask(fail.Words(), src.Words(), u, floor, pTrue, pFalse)
}
