// Package bitserial implements the paper's §8.1 case study: bulk bitwise
// and arithmetic computation built from in-DRAM majority operations.
//
// Two layers are provided:
//
//   - Computer: a functional bit-serial SIMD machine executing on the
//     simulated DRAM. Vectors are stored bit-sliced (bit i of every element
//     lives in one DRAM row), logic is computed with real MAJX operations
//     on a reserved many-row activation group, and correctness is verified
//     against a CPU reference in the tests and examples.
//   - CostModel (costs.go): the analytical execution-time model behind
//     Fig. 16's microbenchmark speedups.
//
// Operand staging into the compute group is modeled functionally through
// the row buffer (always possible on any (src, dst) pair) and *costed* as
// RowClone/Multi-RowCopy operations, exactly how the paper's evaluation
// schedules them.
package bitserial

import (
	"errors"
	"fmt"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/timing"
)

// ErrNoReliableGroup reports that no candidate activation group kept
// enough reliable columns at the computer's operating point. At stressed
// environments this is a legitimate physical outcome (the mitigation
// co-simulation maps it to a zero success rate), so callers can
// discriminate it from programming errors with errors.Is.
var ErrNoReliableGroup = errors.New("bitserial: no reliable compute group found")

// Computer executes majority-based bit-serial computation on one subarray.
// Register rows move through the machine as packed bit vectors: gates,
// copies and the construction-time reliability probe all run 64 SIMD
// lanes per word.
type Computer struct {
	sa      *dram.Subarray
	mod     *dram.Module
	env     analog.Env
	timings timing.APATimings // APA timings every MAJ executes with
	group   bender.Group      // the many-row activation group used for MAJ ops
	maxX    int               // widest usable majority operation

	reliable bitvec.Vec // per-column mask probed at construction
	regs     map[int]bool
	freeRegs []int
	nextReg  int

	// Reusable scratch. A Computer is single-threaded, so gates, copies
	// and the construction-time probe all run allocation-free on these
	// buffers: rowBufs backs operand staging (rows method), rowBuf is the
	// single-row scratch for complemented/neutral fills, outBuf receives
	// APA readbacks, and detBuf/metaBuf hold the planned probe's per-set
	// sensing decomposition. Values handed out alias this storage and are
	// only valid until the next operation.
	rowBufs []bitvec.Vec
	rowBuf  bitvec.Vec
	outBuf  bitvec.Vec
	detBuf  bitvec.Vec
	metaBuf bitvec.Vec

	zeroReg int // constant all-0s register
	oneReg  int // constant all-1s register

	counts OpCounts
	trial  int
}

// OpCounts tallies the in-DRAM operations a computation issued; the cost
// model converts them to execution time.
type OpCounts struct {
	MAJ   map[int]int // majority width → count
	NOT   int         // inverted row copies
	Stage int         // operand placements (RowClone-equivalent)
}

// add counts one MAJx operation.
func (o *OpCounts) add(x int) {
	if o.MAJ == nil {
		o.MAJ = make(map[int]int)
	}
	o.MAJ[x]++
}

// NewComputer reserves a 32-row activation group in the subarray, probes
// its per-column reliability with worst-case-margin test vectors, and sets
// up constant rows. maxX bounds the majority width used (the module's
// profile may bound it further).
func NewComputer(mod *dram.Module, sa *dram.Subarray, maxX int) (*Computer, error) {
	return NewComputerAt(mod, sa, maxX, analog.NominalEnv(), timing.BestMAJ())
}

// NewComputerAt is NewComputer under explicit operating conditions: every
// majority operation — including the construction-time reliability probe —
// executes with the given environment and APA timings. The scenario
// mitigation axis uses this to co-simulate redundancy schemes across the
// operating envelope; NewComputer is the nominal-point special case.
func NewComputerAt(mod *dram.Module, sa *dram.Subarray, maxX int,
	env analog.Env, at timing.APATimings) (*Computer, error) {
	return buildComputer(mod, sa, maxX, env, at, (*Computer).probeGroup)
}

// probeFunc probes candidate group g at width x and returns the columns
// that passed every probe (see probeGroup).
type probeFunc func(c *Computer, g bender.Group, x int) (bitvec.Vec, error)

// buildComputer is NewComputerAt with the group probe as a parameter, so
// the tests can run the same selection over the scalar reference probe.
func buildComputer(mod *dram.Module, sa *dram.Subarray, maxX int,
	env analog.Env, at timing.APATimings, probe probeFunc) (*Computer, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if maxX < 3 || maxX%2 == 0 {
		return nil, fmt.Errorf("bitserial: maxX %d must be odd and >= 3", maxX)
	}
	if lim := mod.Spec().Profile.MaxMAJ; maxX > lim {
		maxX = lim
	}
	if maxX < 3 {
		return nil, fmt.Errorf("bitserial: %s chips cannot perform majority operations",
			mod.Spec().Profile.Manufacturer)
	}
	groups, err := bender.SampleGroups(sa, mod, 32, 8, 0xc0117)
	if err != nil {
		return nil, err
	}
	c := &Computer{
		sa:      sa,
		mod:     mod,
		env:     env,
		timings: at,
		maxX:    maxX,
		regs:    make(map[int]bool),
		rowBuf:  bitvec.New(sa.Cols()),
		outBuf:  bitvec.New(sa.Cols()),
		detBuf:  bitvec.New(sa.Cols()),
		metaBuf: bitvec.New(sa.Cols()),
	}
	// Probe every candidate group at every width and pick the one
	// supporting the widest majority with the most reliable columns — the
	// paper's "row group producing the highest throughput" selection
	// (§8.1). A width is usable only if it leaves more than a third of
	// the columns reliable; MAJ7/MAJ9 often are not (Obs. 8), in which
	// case the computer falls back to narrower fused operations.
	bestWidth, bestCount := 0, -1
	for _, g := range groups {
		width, mask, err := c.scoreGroup(g, probe)
		if err != nil {
			return nil, err
		}
		count := 0
		if width > 0 {
			count = mask.PopCount()
		}
		if width > bestWidth || width == bestWidth && count > bestCount {
			bestWidth, bestCount = width, count
			c.group = g
			c.reliable = mask
		}
	}
	if bestWidth == 0 {
		return nil, fmt.Errorf("%w (best %d/%d columns)", ErrNoReliableGroup, bestCount, sa.Cols())
	}
	c.maxX = bestWidth

	c.zeroReg, err = c.AllocReg()
	if err != nil {
		return nil, err
	}
	c.oneReg, err = c.AllocReg()
	if err != nil {
		return nil, err
	}
	zero := bitvec.New(sa.Cols())
	ones := bitvec.New(sa.Cols())
	ones.Fill(true)
	if err := sa.WriteRowVec(c.zeroReg, zero); err != nil {
		return nil, err
	}
	if err := sa.WriteRowVec(c.oneReg, ones); err != nil {
		return nil, err
	}
	return c, nil
}

// scoreGroup probes a candidate group at widths 3, 5, ... up to the
// computer's bound, intersecting per-width reliability masks, and returns
// the widest usable majority (0 if even MAJ3 is unusable) with its mask.
func (c *Computer) scoreGroup(g bender.Group, probe probeFunc) (int, bitvec.Vec, error) {
	threshold := c.sa.Cols() / 3
	width := 0
	var reliable bitvec.Vec
	for x := 3; x <= c.maxX; x += 2 {
		mask, err := probe(c, g, x)
		if err != nil {
			return 0, bitvec.Vec{}, err
		}
		if width > 0 {
			mask.And(mask, reliable)
		}
		if mask.PopCount() <= threshold {
			break
		}
		width = x
		reliable = mask
	}
	return width, reliable, nil
}

// probeGroup tests MAJX with minimal margins on a candidate group: every
// rotation of the one-vote-margin operand pattern, in both directions. A
// column passing all probes resolves any MAJX with at least that margin
// correctly: margins only grow with higher vote differences, and all
// per-column variation (sense threshold, coupling, cell capacitance,
// group viability) is static.
func (c *Computer) probeGroup(g bender.Group, x int) (bitvec.Vec, error) {
	saved := c.group
	c.group = g
	defer func() { c.group = saved }()

	cols := c.sa.Cols()
	mask := bitvec.New(cols)
	mask.Fill(true)
	// Every operand bitmask with a one-vote majority, in both directions:
	// C(x, (x+1)/2) · 2 compositions (6 for MAJ3, 252 for MAJ9). Each
	// composition is additionally probed in a *weakened* form with one
	// replica row of the winning side flipped: a column that still
	// resolves correctly keeps a margin reserve that survives a group row
	// dropping out of a later activation (wordline-assertion flicker).
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
		// With replication available, probe two weakened variants (the
		// handicap lands on different replica rows, so two independent
		// capacitance draws would both have to sit in the tail for a
		// dropout to escape); without replication, probe plain.
		variants := []int{-1}
		if copies > 1 {
			variants = []int{weakenRowIndex(copies-1, x, winnerSlot),
				weakenRowIndex(0, x, winnerSlot)}
		}
		for _, weakenRow := range variants {
			if err := c.probeRepeated(operands, weakenRow, expectOne, mask); err != nil {
				return bitvec.Vec{}, err
			}
		}
	}
	return mask, nil
}

// foldProbe drops the columns of got that missed the expected constant
// from mask, one word-parallel step.
func foldProbe(mask, got bitvec.Vec, expectOne bool) {
	if expectOne {
		mask.And(mask, got)
	} else {
		mask.AndNot(mask, got)
	}
}

// probeRepeated runs probeRepeats repeats of one probe — a metastable
// column resolves randomly per trial and would pass a single look half
// the time — and folds every repeat into mask. A group's rows are the
// decoder's whole activation set, so each repeat restages every row the
// previous one sensed into, and in share mode the repeats differ only in
// their per-trial draws: the operands are staged once, and the repeats
// run as one trial-plane plan over trials c.trial+1 ..
// c.trial+probeRepeats, with one ShareResolve per distinct asserted set
// and one ShareOut per trial. The last trial's sensed row is then written
// into its asserted rows and the trial counter advanced, which leaves the
// subarray and the counter exactly where the per-repeat loop leaves them
// (DESIGN §17). Single- and copy-mode plans run that loop.
func (c *Computer) probeRepeated(operands []bitvec.Vec, weakenRow int, expectOne bool, mask bitvec.Vec) error {
	if err := c.stage(operands, weakenRow); err != nil {
		return err
	}
	opts := c.majOpts(len(operands), c.trial+1)
	plan, err := c.sa.PlanAPA(c.group.RF, c.group.RS, probeRepeats, opts)
	if err != nil {
		return err
	}
	if plan.Mode != dram.ModeShare {
		for rep := 0; rep < probeRepeats; rep++ {
			if rep > 0 {
				if err := c.stage(operands, weakenRow); err != nil {
					return err
				}
			}
			got, _, err := c.fire(len(operands))
			if err != nil {
				return err
			}
			foldProbe(mask, got, expectOne)
		}
		return nil
	}
	last := c.trial + probeRepeats
	det, meta, out, lastOut := c.detBuf, c.metaBuf, c.outBuf, c.rowBuf
	var lastRows []int
	for _, set := range plan.Sets {
		if plan.Viable {
			c.sa.ShareResolve(det, meta, set, plan, opts)
		}
		for _, trial := range set.Trials {
			c.sa.ShareOut(out, det, meta, plan, trial)
			foldProbe(mask, out, expectOne)
			if trial == last {
				lastOut.CopyFrom(out)
				lastRows = set.Rows
			}
		}
	}
	// Every set resolved against the staged rows; only now does the last
	// trial's sensing land in its asserted rows, as its APA would leave it.
	for _, r := range lastRows {
		if err := c.sa.WriteRowVec(r, lastOut); err != nil {
			return err
		}
	}
	c.sa.Precharge()
	c.trial = last
	return nil
}

// rows returns n reusable column-width scratch rows, growing the
// computer's pool on demand. Contents are unspecified — callers overwrite
// them — and the slice is only valid until the next rows call.
func (c *Computer) rows(n int) []bitvec.Vec {
	for len(c.rowBufs) < n {
		c.rowBufs = append(c.rowBufs, bitvec.New(c.sa.Cols()))
	}
	return c.rowBufs[:n]
}

// popcount counts set bits.
func popcount(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Reliable returns the number of columns the compute group can use.
func (c *Computer) Reliable() int { return c.reliable.PopCount() }

// ReliableMask returns a copy of the per-column reliability mask.
func (c *Computer) ReliableMask() []bool { return c.reliable.Bools() }

// ReliableVec returns a packed copy of the per-column reliability mask.
func (c *Computer) ReliableVec() bitvec.Vec {
	out := bitvec.New(c.reliable.Len())
	out.Or(out, c.reliable)
	return out
}

// Counts returns the operation tallies so far.
func (c *Computer) Counts() OpCounts {
	out := c.counts
	out.MAJ = make(map[int]int, len(c.counts.MAJ))
	for k, v := range c.counts.MAJ {
		out.MAJ[k] = v
	}
	return out
}

// Group returns the compute group's rows.
func (c *Computer) Group() bender.Group { return c.group }

// Module returns the module the computer executes on.
func (c *Computer) Module() *dram.Module { return c.mod }

// Cols returns the number of SIMD lanes (subarray columns).
func (c *Computer) Cols() int { return c.sa.Cols() }

// WriteRowDirect writes a register row over the memory channel (a normal
// WR, not a PUD operation).
func (c *Computer) WriteRowDirect(reg int, bits []bool) error {
	return c.sa.WriteRow(reg, bits)
}

// ReadRowDirect reads a register row over the memory channel.
func (c *Computer) ReadRowDirect(reg int) ([]bool, error) {
	return c.sa.ReadRow(reg)
}

// WriteRowVecDirect is the packed form of WriteRowDirect: no []bool
// round trip on the fast path.
func (c *Computer) WriteRowVecDirect(reg int, v bitvec.Vec) error {
	return c.sa.WriteRowVec(reg, v)
}

// ReadRowVecDirect is the packed form of ReadRowDirect.
func (c *Computer) ReadRowVecDirect(reg int) (bitvec.Vec, error) {
	return c.sa.ReadRowVec(reg)
}

// MaxX returns the widest majority operation in use.
func (c *Computer) MaxX() int { return c.maxX }

// Zero and One return the constant registers.
func (c *Computer) Zero() int { return c.zeroReg }

// One returns the constant all-1s register.
func (c *Computer) One() int { return c.oneReg }

// AllocReg reserves a free row outside the compute group as a register.
func (c *Computer) AllocReg() (int, error) {
	if n := len(c.freeRegs); n > 0 {
		r := c.freeRegs[n-1]
		c.freeRegs = c.freeRegs[:n-1]
		c.regs[r] = true
		return r, nil
	}
	inGroup := make(map[int]bool, len(c.group.Rows))
	for _, r := range c.group.Rows {
		inGroup[r] = true
	}
	for ; c.nextReg < c.sa.Rows(); c.nextReg++ {
		if !inGroup[c.nextReg] && !c.regs[c.nextReg] {
			c.regs[c.nextReg] = true
			r := c.nextReg
			c.nextReg++
			return r, nil
		}
	}
	return 0, fmt.Errorf("bitserial: out of registers (%d rows)", c.sa.Rows())
}

// FreeReg releases a register for reuse.
func (c *Computer) FreeReg(r int) {
	if c.regs[r] {
		delete(c.regs, r)
		c.freeRegs = append(c.freeRegs, r)
	}
}

// execMAJ stages the operand rows into the compute group with replication
// and neutral fill, fires the APA, and returns the sensed result.
func (c *Computer) execMAJ(operands []bitvec.Vec) (bitvec.Vec, bool, error) {
	return c.execMAJWeakened(operands, -1)
}

// probeRepeats is how many times each probe composition is re-executed to
// screen metastable (trial-dependent) columns.
const probeRepeats = 3

// weakenRowIndex returns the staged-row index of replica `copy` of slot
// `slot` in the round-robin operand layout.
func weakenRowIndex(copy, x, slot int) int { return copy*x + slot }

// execMAJWeakened is execMAJ with an optional handicap used by the
// reliability probe: the staged row at index `weakenRow` is written with
// complemented data, reducing its side's vote margin by two.
func (c *Computer) execMAJWeakened(operands []bitvec.Vec, weakenRow int) (bitvec.Vec, bool, error) {
	if err := c.stage(operands, weakenRow); err != nil {
		return bitvec.Vec{}, false, err
	}
	return c.fire(len(operands))
}

// stage writes the operand rows into the compute group round-robin, with
// replication and neutral fill; the staged row at index weakenRow (if it
// is an operand replica) takes the complemented operand.
func (c *Computer) stage(operands []bitvec.Vec, weakenRow int) error {
	x := len(operands)
	copies := c.group.N() / x
	fracOK := c.mod.Spec().Profile.FracSupported
	if weakenRow >= copies*x {
		weakenRow = -1
	}
	scratch := c.rowBuf
	for i, r := range c.group.Rows {
		var err error
		switch {
		case i == weakenRow:
			scratch.Not(operands[i%x])
			err = c.sa.WriteRowVec(r, scratch)
		case i < copies*x:
			err = c.sa.WriteRowVec(r, operands[i%x])
		case fracOK:
			err = c.sa.SetFracRow(r)
		default:
			scratch.Fill((i-copies*x)%2 == 1)
			err = c.sa.WriteRowVec(r, scratch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// majOpts returns the APA options of a MAJx on the compute group at the
// given trial.
func (c *Computer) majOpts(x, trial int) dram.APAOptions {
	return dram.APAOptions{
		Timings: c.timings,
		Env:     c.env,
		Trial:   trial,
		// Compute data is arbitrary: assume full coupling like the random
		// pattern, the paper's worst case.
		PatternCoupling: dram.PatternRandom.CouplingFactor(),
		MAJ:             &dram.MAJSpec{X: x, Copies: c.group.N() / x},
	}
}

// fire issues the next trial's MAJx APA over the staged compute group and
// returns the sensed result.
func (c *Computer) fire(x int) (bitvec.Vec, bool, error) {
	c.trial++
	res, err := c.sa.APA(c.group.RF, c.group.RS, c.majOpts(x, c.trial))
	if err != nil {
		return bitvec.Vec{}, false, err
	}
	c.sa.Precharge()
	// The result aliases outBuf: callers consume it (mask fold, WriteRowVec)
	// before the next operation.
	if err := c.sa.ReadRowInto(c.outBuf, c.group.RF); err != nil {
		return bitvec.Vec{}, false, err
	}
	return c.outBuf, res.Viable, nil
}

// MAJ computes dst = MAJX(srcs...) across all columns. len(srcs) must be
// odd, at least 3, and at most the computer's usable width.
func (c *Computer) MAJ(dst int, srcs ...int) error {
	x := len(srcs)
	if x < 3 || x%2 == 0 || x > c.maxX {
		return fmt.Errorf("bitserial: MAJ%d unsupported (max %d)", x, c.maxX)
	}
	operands := c.rows(x)
	for j, s := range srcs {
		if err := c.sa.ReadRowInto(operands[j], s); err != nil {
			return err
		}
		c.counts.Stage++
	}
	got, _, err := c.execMAJ(operands)
	if err != nil {
		return err
	}
	c.counts.add(x)
	return c.sa.WriteRowVec(dst, got)
}

// NOT computes dst = ¬src (an inverted row copy, as Ambit's dual-contact
// rows provide; costed as one RowClone).
func (c *Computer) NOT(dst, src int) error {
	row := c.rowBuf
	if err := c.sa.ReadRowInto(row, src); err != nil {
		return err
	}
	row.Not(row)
	c.counts.NOT++
	return c.sa.WriteRowVec(dst, row)
}

// AND computes dst = a ∧ b = MAJ3(a, b, 0).
func (c *Computer) AND(dst, a, b int) error { return c.MAJ(dst, a, b, c.zeroReg) }

// OR computes dst = a ∨ b = MAJ3(a, b, 1).
func (c *Computer) OR(dst, a, b int) error { return c.MAJ(dst, a, b, c.oneReg) }

// ANDWide computes dst = AND(srcs...) using the widest available fused
// majority: ANDk(s₁..s_k) = MAJ(2k−1)(s₁..s_k, 0×(k−1)).
func (c *Computer) ANDWide(dst int, srcs ...int) error {
	return c.reduceWide(dst, c.zeroReg, srcs)
}

// ORWide computes dst = OR(srcs...) via ORk = MAJ(2k−1)(s₁..s_k, 1×(k−1)).
func (c *Computer) ORWide(dst int, srcs ...int) error {
	return c.reduceWide(dst, c.oneReg, srcs)
}

// reduceWide folds srcs with fan-in (maxX+1)/2 fused majority steps.
func (c *Computer) reduceWide(dst, fill int, srcs []int) error {
	if len(srcs) == 0 {
		return fmt.Errorf("bitserial: empty reduction")
	}
	if len(srcs) == 1 {
		row := c.rowBuf
		if err := c.sa.ReadRowInto(row, srcs[0]); err != nil {
			return err
		}
		c.counts.Stage++
		return c.sa.WriteRowVec(dst, row)
	}
	fanIn := (c.maxX + 1) / 2
	pending := append([]int(nil), srcs...)
	tmp, err := c.AllocReg()
	if err != nil {
		return err
	}
	defer c.FreeReg(tmp)
	args := make([]int, 0, 2*fanIn-1)
	for len(pending) > 1 {
		k := fanIn
		if k > len(pending) {
			k = len(pending)
		}
		args = append(args[:0], pending[:k]...)
		for i := 0; i < k-1; i++ {
			args = append(args, fill)
		}
		out := tmp
		if len(pending) == k {
			out = dst
		}
		if err := c.MAJ(out, args...); err != nil {
			return err
		}
		pending = append([]int{out}, pending[k:]...)
	}
	return nil
}

// XOR computes dst = a ⊕ b = AND(NAND(a,b), OR(a,b)).
func (c *Computer) XOR(dst, a, b int) error {
	nand, err := c.AllocReg()
	if err != nil {
		return err
	}
	defer c.FreeReg(nand)
	or, err := c.AllocReg()
	if err != nil {
		return err
	}
	defer c.FreeReg(or)
	if err := c.AND(nand, a, b); err != nil {
		return err
	}
	if err := c.NOT(nand, nand); err != nil {
		return err
	}
	if err := c.OR(or, a, b); err != nil {
		return err
	}
	return c.AND(dst, nand, or)
}

// FullAdder computes (sum, carry) = a + b + cin. With MAJ5 available the
// sum uses the single-step majority identity
// SUM = MAJ5(a, b, cin, ¬carry, ¬carry); otherwise it falls back to two
// XOR gates.
func (c *Computer) FullAdder(sum, carry, a, b, cin int) error {
	tmpCarry, err := c.AllocReg()
	if err != nil {
		return err
	}
	defer c.FreeReg(tmpCarry)
	if err := c.MAJ(tmpCarry, a, b, cin); err != nil {
		return err
	}
	if c.maxX >= 5 {
		ncarry, err := c.AllocReg()
		if err != nil {
			return err
		}
		defer c.FreeReg(ncarry)
		if err := c.NOT(ncarry, tmpCarry); err != nil {
			return err
		}
		if err := c.MAJ(sum, a, b, cin, ncarry, ncarry); err != nil {
			return err
		}
	} else {
		t, err := c.AllocReg()
		if err != nil {
			return err
		}
		defer c.FreeReg(t)
		if err := c.XOR(t, a, b); err != nil {
			return err
		}
		if err := c.XOR(sum, t, cin); err != nil {
			return err
		}
	}
	// Publish the carry after the sum consumed the operands (sum may alias
	// a, b or cin; carry must not be clobbered early).
	row, err := c.sa.ReadRowVec(tmpCarry)
	if err != nil {
		return err
	}
	c.counts.Stage++
	return c.sa.WriteRowVec(carry, row)
}
