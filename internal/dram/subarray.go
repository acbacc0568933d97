package dram

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/analog"
	"repro/internal/bitvec"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// Static-draw tags: every source of per-cell/per-row/per-column static
// process variation hashes a distinct tag so draws are independent.
const (
	tagGamma      = 0x01 // per-cell capacitance variation
	tagFrac       = 0x02 // per-cell Frac residual level
	tagTheta      = 0x03 // per-column sense threshold
	tagCoupling   = 0x04 // per-(column, group) coupling noise
	tagLatch      = 0x05 // per-row predecoder latch settle threshold
	tagWL         = 0x06 // per-row wordline settle threshold
	tagWeakWR     = 0x07 // per-cell weak write cells
	tagWeakCopy   = 0x08 // per-cell weak copy destinations
	tagViab       = 0x09 // per-group viability draw
	tagSABias     = 0x0a // per-column sense-amp bias (Frac readout)
	tagJitter     = 0x0b // per-(row, trial) assertion jitter
	tagMeta       = 0x0c // per-(column, trial) metastable resolution
	tagShareLatch = 0x0d // per-group share-mode latch race threshold
)

// chargeFrac is the stored level of a Frac (VDD/2) cell.
const chargeFrac = 0.5

// Subarray is one DRAM subarray: a rows×columns array of cells sharing
// bitlines and sense amplifiers, addressed by a local row decoder. All PUD
// operations take place within a single subarray.
//
// Cell state is packed: every stored charge level is one of {0 V, VDD,
// VDD/2}, so a row is two uint64-packed bit planes — `val` holds the
// solid level and `frac` marks VDD/2 cells (a frac bit implies a zero val
// bit). Row I/O, copy, write-overdrive and sense-amplifier resolution all
// operate 64 columns per word; only the charge-sharing arithmetic of
// share mode is per-column, and it reads its static process-variation
// draws from precomputed tables instead of re-hashing every trial.
//
// Static process-variation tables are shared across every Subarray
// instance with the same simulation identity (see saTables), whose
// published per-cell rows are read without a lock. The hot path is also
// allocation-free: structural keys extend a precomputed hash chain,
// decoder activation sets are cached, and the kernels reuse per-subarray
// scratch (a subarray is driven by one goroutine at a time; the engine
// shards per subarray).
type Subarray struct {
	mod      *Module
	bankIdx  int
	saIdx    int
	rows     int
	cols     int
	words    int         // uint64 words per row
	keyChain xrand.Chain // Hash(seed, bank, sa, ...) prefix
	val      []uint64
	frac     []uint64
	asserted []int // rows left open by the last APA (until precharge)
	copyMode bool  // whether the last APA latched the sense amps

	tab *saTables // shared static tables

	// Decoder activation sets per (rf, rs), a pure function of the pair.
	actCache map[uint64][]int

	// Cached charge-share denominators per asserted set (see
	// shareDetMeta): the denominator accumulation is data-independent, so
	// the sweeps' per-pattern calls over the same set reuse one pass. A
	// small ring with exact (rf, rows, weight-bits) matching — never a
	// hash — so a hit is guaranteed to be the identical accumulation.
	denCache []denEntry
	denNext  int

	// Scratch reused by the kernels.
	assertedBuf     []int
	numBuf, denBuf  []float64
	rowBuf, failBuf bitvec.Vec
	detBuf, metaBuf bitvec.Vec

	// PlanAPA scratch: a plan aliases these buffers and stays valid until
	// the next PlanAPA call on this subarray.
	planBuf    APAPlan
	planSets   []AssertSet
	planMasks  []uint64 // per-trial asserted bitmask
	planUniq   []uint64 // distinct masks, first-seen order
	planCounts []int    // trials per distinct mask
	planTrials []int    // backing for the sets' Trials slices
	planRows   []int    // backing for the sets' Rows slices
}

// intsEqual reports whether two int slices are element-wise equal.
func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// denEntry is one cached charge-share denominator accumulation.
type denEntry struct {
	rf         int
	rows       []int // copy of the asserted set, exact-match key
	drive, rfW uint64
	den        []float64
}

// denCacheCap bounds the per-subarray denominator ring: large enough to
// cover every (group, set) of one sweep cell so the next pattern hits.
const denCacheCap = 16

func newSubarray(m *Module, bankIdx, saIdx int) *Subarray {
	rows := m.dec.Rows()
	cols := m.spec.Columns
	words := bitvec.WordsFor(cols)
	s := &Subarray{
		mod:      m,
		bankIdx:  bankIdx,
		saIdx:    saIdx,
		rows:     rows,
		cols:     cols,
		words:    words,
		keyChain: xrand.Begin().Mix(m.spec.Seed).Mix(uint64(bankIdx)).Mix(uint64(saIdx)),
		val:      make([]uint64, rows*words),
		frac:     make([]uint64, rows*words),

		actCache: make(map[uint64][]int),

		assertedBuf: make([]int, 0, m.dec.MaxSimultaneousRows()),
		numBuf:      make([]float64, cols),
		denBuf:      make([]float64, cols),
		rowBuf:      bitvec.New(cols),
		failBuf:     bitvec.New(cols),
		detBuf:      bitvec.New(cols),
		metaBuf:     bitvec.New(cols),
	}
	s.attachTables()
	return s
}

// Rows returns the subarray height.
func (s *Subarray) Rows() int { return s.rows }

// Cols returns the simulated bitline count.
func (s *Subarray) Cols() int { return s.cols }

// Bank returns the bank index this subarray belongs to.
func (s *Subarray) Bank() int { return s.bankIdx }

// Index returns the subarray's index within its bank.
func (s *Subarray) Index() int { return s.saIdx }

func (s *Subarray) checkRow(row int) error {
	if row < 0 || row >= s.rows {
		return fmt.Errorf("dram: row %d outside subarray of %d rows", row, s.rows)
	}
	return nil
}

// rowVal returns the packed solid-level plane of one row.
func (s *Subarray) rowVal(row int) []uint64 {
	return s.val[row*s.words : (row+1)*s.words]
}

// rowFrac returns the packed Frac-marker plane of one row.
func (s *Subarray) rowFrac(row int) []uint64 {
	return s.frac[row*s.words : (row+1)*s.words]
}

// key2 and key3 hash structural coordinates with the module seed by
// extending the precomputed (seed, bank, subarray) chain — equal to
// xrand.Hash(seed, bank, sa, parts...) without building a parts slice.
func (s *Subarray) key2(a, b uint64) uint64 {
	return s.keyChain.Mix(a).Mix(b).Sum()
}

func (s *Subarray) key3(a, b, c uint64) uint64 {
	return s.keyChain.Mix(a).Mix(b).Mix(c).Sum()
}

// colNorm returns the static standard-normal draw for a column and tag.
func (s *Subarray) colNorm(col int, tag uint64) float64 {
	return xrand.NormOf(s.key3(0xffff, uint64(col), tag))
}

// rowNorm returns the static standard-normal draw for a row and tag.
func (s *Subarray) rowNorm(row int, tag uint64) float64 {
	return xrand.NormOf(s.key3(uint64(row), 0xfffe, tag))
}

// fracRow returns one row's per-cell Frac residual draws.
func (s *Subarray) fracRow(row int) []float64 { return s.cellRow(row, rowFrac) }

// wbaseRow returns one row's charge-share weight base, 1 + CellCapSigma·
// gamma[c]: the trial-invariant factor shareDetMeta multiplies by the
// row's drive weight.
func (s *Subarray) wbaseRow(row int) []float64 { return s.cellRow(row, rowWbase) }

// weakRow returns one row's weak-cell uniforms of kind rowWeakWR or
// rowWeakCopy, and the least uniform of each 64-column word.
func (s *Subarray) weakRow(row, kind int) (u, floor []float64) {
	r := s.cellRow(row, kind)
	return r[:s.cols], r[s.cols:]
}

// activatedRows returns the decoder's activation set for the APA pair,
// cached per subarray. The returned slice is shared: callers must not
// mutate it.
func (s *Subarray) activatedRows(rf, rs int) ([]int, error) {
	k := uint64(rf)<<32 | uint64(uint32(rs))
	if rows, ok := s.actCache[k]; ok {
		return rows, nil
	}
	rows, err := s.mod.dec.ActivatedRows(rf, rs)
	if err != nil {
		return nil, err
	}
	s.actCache[k] = rows
	return rows, nil
}

// weakMask packs a write's static weak-cell failures into dst: bit c is
// set when the cell's uniform draw u[c] falls below the failure
// probability of the bit the write drives into it — pOne where drive has
// a 1, pZero where it has a 0 (a nil drive is all zeros). floor[wi] is
// the least uniform of word wi: when it is below neither probability, no
// u[c] of the word is either (u[c] ≥ floor), so the word is zero without
// the per-bit loop. Each probability is tested on its own, so a NaN one
// (below which nothing falls) skips exactly as the loop would.
func (s *Subarray) weakMask(dst, drive []uint64, u, floor []float64, pOne, pZero float64) {
	for wi := range dst {
		if f := floor[wi]; !(f < pOne) && !(f < pZero) {
			dst[wi] = 0
			continue
		}
		var dw, word uint64
		if drive != nil {
			dw = drive[wi]
		}
		base := wi * 64
		nb := s.cols - base
		if nb > 64 {
			nb = 64
		}
		for b := 0; b < nb; b++ {
			p := pZero
			if dw>>uint(b)&1 == 1 {
				p = pOne
			}
			if u[base+b] < p {
				word |= 1 << uint(b)
			}
		}
		dst[wi] = word
	}
}

// wrFailMask writes into dst the weak-write failure mask of one row under
// a WR that overdrives nAsserted open rows (the failure probability
// depends only on the open-row count, not on the data).
func (s *Subarray) wrFailMask(dst []uint64, row, nAsserted int) {
	p := s.mod.params.WriteFailProb(nAsserted)
	u, floor := s.weakRow(row, rowWeakWR)
	s.weakMask(dst, nil, u, floor, p, p)
}

// WriteRowVec performs a nominal-timing activate + write + precharge of
// one row from a packed vector: cells take solid charge levels.
func (s *Subarray) WriteRowVec(row int, v bitvec.Vec) error {
	if err := s.checkRow(row); err != nil {
		return err
	}
	if v.Len() != s.cols {
		return fmt.Errorf("dram: row data has %d bits, want %d", v.Len(), s.cols)
	}
	copy(s.rowVal(row), v.Words())
	clearWords(s.rowFrac(row))
	return nil
}

// WriteRow is the []bool adapter over WriteRowVec.
func (s *Subarray) WriteRow(row int, bits []bool) error {
	if err := s.checkRow(row); err != nil {
		return err
	}
	if len(bits) != s.cols {
		return fmt.Errorf("dram: row data has %d bits, want %d", len(bits), s.cols)
	}
	return s.WriteRowVec(row, bitvec.FromBools(bits))
}

// FillRow writes a pattern row (see Pattern.Bit) with nominal timing.
func (s *Subarray) FillRow(row int, p Pattern, seed uint64, rowOrdinal int) error {
	return s.WriteRowVec(row, p.FillRowVec(seed, rowOrdinal, s.cols))
}

// SetFracRow performs the Frac operation of FracDRAM on a row: every cell
// is left storing VDD/2, contributing (almost) nothing to later charge
// sharing. It returns an error on modules whose chips do not support Frac
// (Mfr. M, footnote 5); callers fall back to solid neutral rows there.
func (s *Subarray) SetFracRow(row int) error {
	if !s.mod.spec.Profile.FracSupported {
		return fmt.Errorf("dram: %s chips do not support the Frac operation",
			s.mod.spec.Profile.Manufacturer)
	}
	if err := s.checkRow(row); err != nil {
		return err
	}
	clearWords(s.rowVal(row))
	frac := s.rowFrac(row)
	for i := range frac {
		frac[i] = ^uint64(0)
	}
	s.maskRowTail(frac)
	return nil
}

// maskRowTail clears the unused high bits of a row's last word.
func (s *Subarray) maskRowTail(w []uint64) {
	if r := s.cols % 64; r != 0 {
		w[len(w)-1] &= 1<<uint(r) - 1
	}
}

// resolveRow writes the sensed value of a stored row into dst words:
// solid cells read their level, Frac cells resolve to the column's static
// sense-amplifier bias (the paper observes Mfr. M's amplifiers are
// "always biased to one or zero").
func (s *Subarray) resolveRow(dst []uint64, row int) {
	val, frac := s.rowVal(row), s.rowFrac(row)
	bias := s.tab.saBias.Words()
	for i := range dst {
		dst[i] = val[i]&^frac[i] | frac[i]&bias[i]
	}
}

// ReadRowInto performs a nominal-timing read into a caller-owned vector.
func (s *Subarray) ReadRowInto(dst bitvec.Vec, row int) error {
	if err := s.checkRow(row); err != nil {
		return err
	}
	if dst.Len() != s.cols {
		return fmt.Errorf("dram: read buffer has %d bits, want %d", dst.Len(), s.cols)
	}
	s.resolveRow(dst.Words(), row)
	return nil
}

// ReadRowVec performs a nominal-timing read, returning a packed vector.
func (s *Subarray) ReadRowVec(row int) (bitvec.Vec, error) {
	out := bitvec.New(s.cols)
	if err := s.ReadRowInto(out, row); err != nil {
		return bitvec.Vec{}, err
	}
	return out, nil
}

// ReadRow is the []bool adapter over ReadRowVec.
func (s *Subarray) ReadRow(row int) ([]bool, error) {
	v, err := s.ReadRowVec(row)
	if err != nil {
		return nil, err
	}
	return v.Bools(), nil
}

// RawLevel exposes a cell's stored charge level for tests and the TRNG
// extension.
func (s *Subarray) RawLevel(row, col int) (float64, error) {
	if err := s.checkRow(row); err != nil {
		return 0, err
	}
	if col < 0 || col >= s.cols {
		return 0, fmt.Errorf("dram: column %d outside subarray of %d columns", col, s.cols)
	}
	wi, b := col/64, uint(col%64)
	if s.rowFrac(row)[wi]>>b&1 == 1 {
		return chargeFrac, nil
	}
	return float64(s.rowVal(row)[wi] >> b & 1), nil
}

// RowsImage is the stored charge state of a set of rows: both bit planes
// of every row, so restoring it is exact whatever the rows held, solid
// levels and Frac cells alike. An image is read-only once saved.
type RowsImage struct {
	rows      []int
	val, frac []uint64
}

// Bytes returns the heap bytes the image holds.
func (img RowsImage) Bytes() int {
	return 8 * (cap(img.rows) + cap(img.val) + cap(img.frac))
}

// SaveRows captures the stored state of the given rows.
func (s *Subarray) SaveRows(rows []int) (RowsImage, error) {
	img := RowsImage{rows: append([]int(nil), rows...),
		val: make([]uint64, 0, len(rows)*s.words), frac: make([]uint64, 0, len(rows)*s.words)}
	for _, r := range rows {
		if err := s.checkRow(r); err != nil {
			return RowsImage{}, err
		}
		img.val = append(img.val, s.rowVal(r)...)
		img.frac = append(img.frac, s.rowFrac(r)...)
	}
	return img, nil
}

// RestoreRows writes a saved image back into its rows, leaving them
// exactly as they were when it was saved. The image must come from a
// subarray of the same geometry.
func (s *Subarray) RestoreRows(img RowsImage) error {
	if len(img.val) != len(img.rows)*s.words {
		return fmt.Errorf("dram: row image of %d words does not fit %d rows of %d columns",
			len(img.val), len(img.rows), s.cols)
	}
	for i, r := range img.rows {
		if err := s.checkRow(r); err != nil {
			return err
		}
		copy(s.rowVal(r), img.val[i*s.words:(i+1)*s.words])
		copy(s.rowFrac(r), img.frac[i*s.words:(i+1)*s.words])
	}
	return nil
}

// MAJSpec tells the APA engine that the charge-share operation implements
// an X-input majority with the given replication factor, enabling the
// group-viability model. A nil spec (plain activation or copy attempts)
// is always viable.
type MAJSpec struct {
	X      int // number of majority inputs
	Copies int // replication factor ⌊N/X⌋
}

// APAOptions parameterizes one ACT→PRE→ACT command sequence.
type APAOptions struct {
	Timings timing.APATimings
	Env     analog.Env
	// Trial indexes the repetition of the experiment; it seeds the
	// per-trial transient draws (assertion jitter, metastable resolutions).
	Trial int
	// PatternCoupling is the data pattern's coupling factor (see
	// Pattern.CouplingFactor); zero for a quiet array.
	PatternCoupling float64
	// MAJ, when non-nil, enables the majority-group viability model.
	MAJ *MAJSpec
}

// Mode describes what the APA sequence did electrically.
type Mode uint8

// APA modes.
const (
	// ModeSingle: the sequence behaved like a normal activation of the
	// second row — either tRP was respected (the latches cleared properly)
	// or the chip's control circuitry guards against the violation
	// (Samsung, §9 Limitation 1).
	ModeSingle Mode = iota
	// ModeShare: charge-share (majority) mode — t1 below the sense-latch
	// point, all activated cells share charge and the amplifier resolves
	// their aggregate perturbation.
	ModeShare
	// ModeCopy: the sense amplifier latched the first row before the
	// second ACT and drives its data into every activated row.
	ModeCopy
)

func (m Mode) String() string {
	switch m {
	case ModeSingle:
		return "single"
	case ModeShare:
		return "share"
	case ModeCopy:
		return "copy"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// APAResult reports the outcome of one APA sequence.
type APAResult struct {
	Mode Mode
	// Activated is the decoder's asserted-wordline set (sorted). The
	// slice is shared with the subarray's caches: read-only, valid until
	// the next APA.
	Activated []int
	// Asserted is the subset whose wordlines actually settled this trial.
	// Like Activated it aliases reused storage: read-only, valid until
	// the next APA.
	Asserted []int
	// Viable reports whether the majority group resolved deterministically
	// (always true outside share mode or without a MAJSpec).
	Viable bool
}

// APA issues ACT(rf) --t1--> PRE --t2--> ACT(rs) and applies its electrical
// consequences to the array. After APA the asserted rows remain open: a
// subsequent WriteOpenRows models the WR-overdrive step of §3.2, and
// Precharge closes the bank.
func (s *Subarray) APA(rf, rs int, opts APAOptions) (APAResult, error) {
	if err := s.checkRow(rf); err != nil {
		return APAResult{}, err
	}
	if err := s.checkRow(rs); err != nil {
		return APAResult{}, err
	}
	t := opts.Timings.Quantized()
	params := &s.mod.params
	jedec := timing.DDR4()

	// Multi-row activation requires the tRP violation (so the predecoder
	// latches keep the first address) on an unguarded chip. Otherwise the
	// sequence is a normal back-to-back activation: only the second row
	// ends up open.
	if !t.ViolatesTRP(jedec) || s.mod.spec.Profile.APAGuarded {
		s.asserted = append(s.assertedBuf[:0], rs)
		s.copyMode = false
		return APAResult{Mode: ModeSingle, Activated: s.asserted, Asserted: s.asserted, Viable: true}, nil
	}

	activated, err := s.activatedRows(rf, rs)
	if err != nil {
		return APAResult{}, err
	}

	// Per-row wordline assertion: rf stays asserted from the first ACT;
	// every other row in the set must win the settling race (§4 Obs. 2).
	asserted := s.assertedBuf[:0]
	latchMean := params.LatchMean(len(activated), opts.Env)
	for _, r := range activated {
		if r == rf {
			asserted = append(asserted, r)
			continue
		}
		if s.rowAsserts(r, latchMean, opts.Trial, t) {
			asserted = append(asserted, r)
		}
	}

	res := APAResult{Activated: activated, Asserted: asserted, Viable: true}
	if t.T1 >= params.SenseLatchTime {
		res.Mode = ModeCopy
		s.applyCopy(rf, asserted, t, opts)
	} else {
		res.Mode = ModeShare
		res.Viable = s.applyShare(rf, rs, asserted, t, opts)
	}
	s.asserted = asserted
	s.copyMode = res.Mode == ModeCopy
	return res, nil
}

// rowAsserts draws one row's wordline settling race for one trial, given
// the activation's row-invariant latch mean (Params.LatchMean): the row's
// latch threshold is LatchMean + LatchSettleSigma·norm, LatchThreshold's
// own float sequence. A race no jitter draw can flip is settled without
// drawing (settleRace); otherwise the per-trial jitter draw comes from the
// shared jitRow cache — the same value the hash would produce inline.
// Params are read through a pointer so no row copies the struct.
func (s *Subarray) rowAsserts(r int, latchMean float64, trial int, t timing.APATimings) bool {
	params := &s.mod.params
	latchThresh := latchMean + params.LatchSettleSigma*s.tab.latchNorm[r]
	wlThresh := s.tab.wlThresh[r]
	sigma := params.AssertTransientSigma
	switch settleRace(t.T2, t.Total(), latchThresh, wlThresh, math.Abs(sigma)*xrand.NormMax) {
	case raceAlways:
		return true
	case raceNever:
		return false
	}
	jit := sigma * s.tab.jitRow(s, r, trial, 1)[0]
	return t.T2+jit >= latchThresh && t.Total()+jit >= wlThresh
}

// Outcomes of a row's wordline settling race that its thresholds fix
// before any jitter draw.
const (
	raceDrawn  = iota // the trial's jitter draw decides
	raceAlways        // asserts whatever the draw
	raceNever         // never asserts, whatever the draw
)

// settleRace classifies a row's settling race. The row asserts in a trial
// iff t2+jit ≥ latch and total+jit ≥ wl, where jit = σ·NormOf(h) and
// |NormOf(h)| < xrand.NormMax. Floating-point rounding is monotone, so
// for jmax = |σ|·NormMax every such sum lies between x−jmax and x+jmax
// as computed: a threshold outside that interval fixes the comparison for
// every possible draw, and settling it without drawing changes no result.
func settleRace(t2, total, latch, wl, jmax float64) int {
	switch {
	case t2-jmax >= latch && total-jmax >= wl:
		return raceAlways
	case t2+jmax < latch || total+jmax < wl:
		return raceNever
	}
	return raceDrawn
}

// copyProbs returns the per-driven-bit-value failure probabilities of a
// latched copy into nAct open rows, reading the source row's current
// pull-up load. Trial-invariant.
func (s *Subarray) copyProbs(rf, nAct int, t timing.APATimings, opts APAOptions) (pTrue, pFalse float64) {
	params := &s.mod.params
	jedec := timing.DDR4()

	// Collective pull-up droop counts the source cells at solid VDD;
	// Frac cells sit at the midpoint and do not load the pull-ups, even
	// though their readout resolves to the amplifier bias below.
	ones := 0
	for _, w := range s.rowVal(rf) {
		ones += bits.OnesCount64(w)
	}
	onesFrac := float64(ones) / float64(s.cols)
	pTrue = params.CopyFailProb(true, onesFrac, nAct, opts.Env, t.T1, jedec.TRAS)
	pFalse = params.CopyFailProb(false, onesFrac, nAct, opts.Env, t.T1, jedec.TRAS)
	return pTrue, pFalse
}

// applyCopy drives the sense amplifiers' latched data (the first row's
// contents) into every asserted row. Weak destination cells keep their old
// charge. The per-bit-value failure draws are static: one pass over the
// row's weak-copy uniforms packs the failure mask, and the write
// collapses to word ops.
func (s *Subarray) applyCopy(rf int, asserted []int, t timing.APATimings, opts APAOptions) {
	pTrue, pFalse := s.copyProbs(rf, len(asserted), t, opts)

	// Snapshot the resolved source bits (Frac cells take the amplifier
	// bias) before any destination write lands.
	src := s.rowBuf.Words()
	s.resolveRow(src, rf)

	for _, r := range asserted {
		val, frac := s.rowVal(r), s.rowFrac(r)
		if r == rf {
			copy(val, src)
			clearWords(frac)
			continue
		}
		// Static weak-cell draws: a weak destination never takes the
		// copy, so it fails every trial (matching the all-trials success
		// metric).
		fail := s.failBuf.Words()
		u, floor := s.weakRow(r, rowWeakCopy)
		s.weakMask(fail, src, u, floor, pTrue, pFalse)
		for wi := range val {
			val[wi] = src[wi]&^fail[wi] | val[wi]&fail[wi]
			frac[wi] &= fail[wi]
		}
	}
}

// shareViable draws the share-mode group viability: the group latch race
// (Obs. 7's t2 cliff) and, for majority operations, the viability model.
// Trial-invariant: both draws hash only group coordinates.
func (s *Subarray) shareViable(rf, rs int, t timing.APATimings, opts APAOptions) bool {
	params := &s.mod.params

	// Share-mode group latch race: below the per-group t2 threshold the
	// whole group's sensing is metastable (Obs. 7's t2 = 1.5 ns cliff).
	shareThresh := params.ShareLatchThreshold(
		xrand.Norm(s.key3(uint64(rf), uint64(rs), tagShareLatch)))
	viable := t.T2 >= shareThresh

	if viable && opts.MAJ != nil {
		bias := s.mod.spec.Profile.ViabilityBias
		if opts.MAJ.X > s.mod.spec.Profile.MaxMAJ {
			bias -= 3 // beyond the vendor's supported majority width
		}
		if !s.mod.spec.Profile.FracSupported {
			// Solid-value neutral rows rely on amplifier bias
			// cancellation, which is slightly less robust than Frac.
			bias -= 0.1
		}
		z := params.ViabilityZ(opts.MAJ.X, opts.MAJ.Copies, t.Total(),
			opts.PatternCoupling, bias)
		viable = xrand.Norm(s.key3(uint64(rf), uint64(rs), tagViab)) < z
	}
	return viable
}

// shareDetMeta computes the trial-invariant decomposition of share-mode
// sensing for one asserted set: det gets the bits the amplifiers resolve
// deterministically to 1, meta the columns within the reliable sensing
// margin (metastable, resolved per trial by metaOverlay). Everything here
// — charge accumulation, coupling noise, thresholds — depends only on the
// asserted rows' current contents and static draws.
//
// The kernel accumulates the per-column perturbation numerator and
// denominator row by row from the packed planes (reading the hoisted
// wbase/Frac tables instead of hashing), then resolves sense amplifiers
// one 64-column word block at a time, packing result bits directly.
func (s *Subarray) shareDetMeta(det, meta []uint64, rf int, asserted []int,
	t timing.APATimings, opts APAOptions, groupKey uint64) {

	params := &s.mod.params
	drive := params.DriveFactor(opts.Env)
	rfWeight := params.RFWeight(t.Total()) * drive
	// Retention stress decays stored levels toward VDD/2. The factor is
	// exactly 1 at Retention = 0, which keeps the solid-level fast path
	// below eligible and the kernel bit-identical to the pre-retention
	// model there.
	ret := 1.0
	if opts.Env.Retention != 0 {
		ret = params.RetentionLevelFactor(opts.Env)
	}

	num, den := s.numBuf, s.denBuf
	// The denominator accumulation is data-independent — per column it is
	// BitlineCapRatio plus the asserted rows' weights in row order — so a
	// ring entry matching (rf, rows, weight bits) exactly holds the
	// bit-identical result of the den side of the loop below, and the
	// accumulation can skip it.
	denHit := false
	db, wbits := math.Float64bits(drive), math.Float64bits(rfWeight)
	for i := range s.denCache {
		e := &s.denCache[i]
		if e.rf == rf && e.drive == db && e.rfW == wbits && intsEqual(e.rows, asserted) {
			copy(den, e.den)
			denHit = true
			break
		}
	}
	for c := 0; c < s.cols; c++ {
		num[c] = 0
		if !denHit {
			den[c] = params.BitlineCapRatio
		}
	}
	for _, r := range asserted {
		w := drive
		if r == rf {
			w = rfWeight
		}
		wbase := s.wbaseRow(r)
		val, frac := s.rowVal(r), s.rowFrac(r)
		var fracTab []float64
		if anyWord(frac) {
			fracTab = s.fracRow(r)
		}
		for wi := 0; wi < s.words; wi++ {
			vw, fw := val[wi], frac[wi]
			base := wi * 64
			nb := s.cols - base
			if nb > 64 {
				nb = 64
			}
			// Word-local subslices let the compiler elide the per-column
			// bounds checks; the arithmetic is unchanged.
			nm, dn, wbs := num[base:base+nb], den[base:base+nb], wbase[base:base+nb]
			if fw == 0 && ret == 1 {
				// Fast path: no Frac cells in the word, so level is ±1 and
				// the sign multiply collapses to a sign-bit flip. IEEE
				// multiplication by exact ±1.0 only toggles the sign bit,
				// whatever the sign of wc (a large CellCapSigma makes some
				// weights negative), so XOR-ing it is bit-identical to the
				// general path below.
				if denHit {
					for b := range nm {
						sb := (vw>>uint(b)&1 ^ 1) << 63
						nm[b] += math.Float64frombits(math.Float64bits(w*wbs[b]) ^ sb)
					}
					continue
				}
				for b := range nm {
					wc := w * wbs[b]
					sb := (vw>>uint(b)&1 ^ 1) << 63
					nm[b] += math.Float64frombits(math.Float64bits(wc) ^ sb)
					dn[b] += wc
				}
				continue
			}
			for b := range nm {
				var level float64
				switch {
				case fw>>uint(b)&1 == 1:
					level = params.FracSigma * fracTab[base+b]
				case vw>>uint(b)&1 == 1:
					level = 1
				default:
					level = -1
				}
				wc := w * wbs[b]
				nm[b] += wc * level * ret
				if !denHit {
					dn[b] += wc
				}
			}
		}
	}
	if !denHit {
		// Publish this set's denominators to the ring (round-robin evict).
		if s.denCache == nil {
			s.denCache = make([]denEntry, 0, denCacheCap)
		}
		e := denEntry{rf: rf, rows: append([]int(nil), asserted...),
			drive: db, rfW: wbits, den: append([]float64(nil), den...)}
		if len(s.denCache) < denCacheCap {
			s.denCache = append(s.denCache, e)
		} else {
			s.denCache[s.denNext] = e
			s.denNext = (s.denNext + 1) % denCacheCap
		}
	}
	coup := s.tab.couplingRow(s.cols, groupKey)
	theta := s.tab.theta
	// VDD/2 and CouplingSigma·patternFactor are loop-invariant prefixes of
	// left-associative products — hoisting them performs the identical
	// float sequence.
	half := params.VDD / 2
	cs := params.CouplingSigma * opts.PatternCoupling
	if opts.Env.Disturb != 0 {
		// Aggressor bitlines swing during the victim's sensing window,
		// amplifying the static coupling offsets. Gated so the quiet-array
		// zero point performs the identical float sequence.
		cs *= params.CouplingDisturbFactor(opts.Env)
	}
	for wi := 0; wi < s.words; wi++ {
		var dw, mw uint64
		base := wi * 64
		nb := s.cols - base
		if nb > 64 {
			nb = 64
		}
		nm, dn := num[base:base+nb], den[base:base+nb]
		cp, th := coup[base:base+nb], theta[base:base+nb]
		for b := range nm {
			delta := 0.0
			if dn[b] > 0 {
				delta = half * nm[b] / dn[b]
			}
			v := delta + cs*cp[b]
			switch {
			case v > th[b]:
				dw |= 1 << uint(b)
			case v < -th[b]:
				// resolves to 0
			default:
				// Below the reliable sensing margin: metastable per trial.
				mw |= 1 << uint(b)
			}
		}
		det[wi] = dw
		meta[wi] = mw
	}
}

// metaOverlay materializes one trial's sensing outcome from the det/meta
// decomposition: deterministic bits pass through, metastable columns take
// their per-trial coin from the cached coin plane — the identical draw
// the per-bit hash made, assembled with word ops.
func (s *Subarray) metaOverlay(out, det, meta []uint64, groupKey uint64, trial int) {
	coin := s.tab.metaPlane(s, groupKey, trial, true)
	for wi := range out {
		out[wi] = det[wi] | meta[wi]&coin[wi]
	}
}

// metaResolve fills one trial's sensing outcome of a non-viable group:
// the amplifier race resolves arbitrarily, differently every trial (the
// cached plane holds exactly the per-column draws of this trial).
func (s *Subarray) metaResolve(out []uint64, groupKey uint64, trial int) {
	copy(out, s.tab.metaPlane(s, groupKey, trial, false))
}

// applyShare performs charge-share (majority) resolution on every bitline
// and writes the sensed value back into all asserted cells. It returns
// whether the group was viable (see analog.Params.ViabilityZ); non-viable
// groups resolve metastably, differently on every trial.
func (s *Subarray) applyShare(rf, rs int, asserted []int, t timing.APATimings, opts APAOptions) bool {
	viable := s.shareViable(rf, rs, t, opts)
	groupKey := s.key2(uint64(rf), uint64(rs))
	out := s.rowBuf.Words()

	if !viable {
		s.metaResolve(out, groupKey, opts.Trial)
	} else {
		det, meta := s.detBuf.Words(), s.metaBuf.Words()
		s.shareDetMeta(det, meta, rf, asserted, t, opts, groupKey)
		s.metaOverlay(out, det, meta, groupKey, opts.Trial)
	}
	for _, r := range asserted {
		copy(s.rowVal(r), out)
		clearWords(s.rowFrac(r))
	}
	return viable
}

// WriteOpenRowsVec models the WR command of the §3.2 methodology: the
// write drivers overdrive the bitlines, updating the cells of every row
// still asserted from the preceding APA. Weak cells (static, rare) miss
// the update — one pass over the row's weak-write uniforms packs their
// mask, and the write is word ops. It returns an error if no rows are open.
func (s *Subarray) WriteOpenRowsVec(v bitvec.Vec) error {
	if len(s.asserted) == 0 {
		return fmt.Errorf("dram: WR with no open rows (issue APA first)")
	}
	if v.Len() != s.cols {
		return fmt.Errorf("dram: WR data has %d bits, want %d", v.Len(), s.cols)
	}
	data, fail := v.Words(), s.failBuf.Words()
	for _, r := range s.asserted {
		s.wrFailMask(fail, r, len(s.asserted))
		val, frac := s.rowVal(r), s.rowFrac(r)
		for wi := range val {
			val[wi] = data[wi]&^fail[wi] | val[wi]&fail[wi]
			frac[wi] &= fail[wi]
		}
	}
	return nil
}

// WriteOpenRows is the []bool adapter over WriteOpenRowsVec.
func (s *Subarray) WriteOpenRows(bits []bool) error {
	return s.WriteOpenRowsVec(bitvec.FromBools(bits))
}

// OpenRows returns the rows currently asserted (open) after an APA.
func (s *Subarray) OpenRows() []int { return append([]int(nil), s.asserted...) }

// Precharge closes the bank: wordlines de-assert and the bitlines return
// to VDD/2. Cell contents are unaffected (they were restored or
// overwritten while open).
func (s *Subarray) Precharge() {
	s.asserted = nil
	s.copyMode = false
}

// clearWords zeroes a word slice.
func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// anyWord reports whether any bit is set in the word slice.
func anyWord(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}
