// Package spice is the circuit-level transient simulator standing in for
// the paper's LTspice + Rambus-model setup (§3.5): an RC model of one
// bitline with N simultaneously connected DRAM cells and a regenerative
// sense amplifier, Monte-Carlo-sampled over capacitor and transistor
// parameter variation.
//
// It regenerates Fig. 15: (a) the bitline perturbation distribution right
// before sensing for MAJ3(1,1,0) with N-row activation, and (b) the MAJ3
// success rate across process-variation percentages.
package spice

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Circuit holds the nominal electrical parameters of the simulated
// bitline. Values are scaled from the Rambus reference model to a
// 22 nm-class node as the paper does; only ratios matter for the
// perturbation results.
type Circuit struct {
	VDD     float64 // core voltage, V
	CellFF  float64 // cell capacitance, fF
	BitFF   float64 // bitline capacitance, fF
	GOnUS   float64 // access-transistor on-conductance, µS
	ShareNS float64 // charge-sharing window before the amplifier fires, ns
	StepNS  float64 // integration step, ns
	// GVarLambda is the exponential sensitivity of the on-conductance to
	// process variation: g = g0·exp(λ·δ). Threshold-voltage shifts act
	// exponentially on the transistor's drive in the short sharing window,
	// which is what collapses 4-row MAJ3 at high variation (Fig. 15b).
	GVarLambda float64
}

// DefaultCircuit returns the nominal 22 nm-class model.
func DefaultCircuit() Circuit {
	return Circuit{
		VDD:        1.2,
		CellFF:     22,
		BitFF:      88,
		GOnUS:      30,
		ShareNS:    1.5,
		StepNS:     0.01,
		GVarLambda: 5.0,
	}
}

// Validate reports whether the circuit is integrable.
func (c Circuit) Validate() error {
	switch {
	case c.VDD <= 0, c.CellFF <= 0, c.BitFF <= 0, c.GOnUS <= 0:
		return fmt.Errorf("spice: parameters must be positive: %+v", c)
	case c.StepNS <= 0 || c.StepNS > c.ShareNS:
		return fmt.Errorf("spice: bad integration step %v", c.StepNS)
	}
	return nil
}

// cell is one DRAM cell connected to the bitline during the transient.
type cell struct {
	v    float64 // stored voltage
	capF float64 // capacitance, fF
	g    float64 // access conductance, µS
}

// lanes is how many same-size Monte-Carlo samples the transient kernel
// integrates in lockstep. Each sample's bitline update is a serial
// dependency chain through a division; interleaving independent chains
// lets them overlap in the pipeline. Eight lanes keep every bitline and
// step delta in registers on amd64 (16 vector registers).
const lanes = 8

// laneCells holds the cells of one lockstep group of samples,
// interleaved so that cell i of lane l sits at index i*lanes+l.
type laneCells struct {
	vs, alpha, capF []float64
}

// reset sizes the group for n cells per lane, zeroing every slot. A lane
// left zero has alpha 0, so its bitline never moves: that is how a group
// pads out the tail of a sweep that does not fill every lane.
func (lc *laneCells) reset(n int) {
	m := n * lanes
	if cap(lc.vs) < m {
		lc.vs = make([]float64, m)
		lc.alpha = make([]float64, m)
		lc.capF = make([]float64, m)
	}
	lc.vs, lc.alpha, lc.capF = lc.vs[:m], lc.alpha[:m], lc.capF[:m]
	clear(lc.vs)
	clear(lc.alpha)
	clear(lc.capF)
}

// load places one sample's cells in lane l. The per-cell relaxation
// factor depends only on the cell, so it is computed here once rather
// than at every step.
func (lc *laneCells) load(l int, cells []cell, stepNS float64) {
	for i, cl := range cells {
		k := i*lanes + l
		lc.vs[k] = cl.v
		lc.alpha[k] = 1 - math.Exp(-cl.g/cl.capF*stepNS)
		lc.capF[k] = cl.capF
	}
}

// transient integrates the charge-sharing transient of every lane against
// a VDD/2-precharged bitline and returns each lane's bitline deviation
// from VDD/2 at the end of the sharing window.
//
// The network is dVb/dt = Σ gᵢ(Vᵢ−Vb)/Cb, dVᵢ/dt = gᵢ(Vb−Vᵢ)/Cᵢ, a
// well-behaved RC star integrated with forward Euler at a small step. In
// (V, ns, fF, µS) units the equations carry no scale factors: µS/fF =
// 1/ns, so a 22 fF cell through a 30 µS transistor has τ ≈ 0.73 ns,
// matching real charge-sharing time scales. Each cell relaxes exactly
// toward the (slow) bitline over one step, which is unconditionally
// stable for any conductance draw.
//
// Within a lane the floating-point operations are the same, in the same
// order, as integrating that sample alone: lanes only interleave
// independent chains, so every lane's result is bit-identical to a
// one-sample integration.
func (c Circuit) transient(lc *laneCells) [lanes]float64 {
	bitFF := c.BitFF
	h := c.VDD / 2
	vb0, vb1, vb2, vb3, vb4, vb5, vb6, vb7 := h, h, h, h, h, h, h, h
	steps := int(c.ShareNS / c.StepNS)
	for s := 0; s < steps; s++ {
		for k := 0; k+lanes <= len(lc.vs); k += lanes {
			v := lc.vs[k : k+lanes : k+lanes]
			a := lc.alpha[k : k+lanes : k+lanes]
			cf := lc.capF[k : k+lanes : k+lanes]
			dv0 := (vb0 - v[0]) * a[0]
			dv1 := (vb1 - v[1]) * a[1]
			dv2 := (vb2 - v[2]) * a[2]
			dv3 := (vb3 - v[3]) * a[3]
			dv4 := (vb4 - v[4]) * a[4]
			dv5 := (vb5 - v[5]) * a[5]
			dv6 := (vb6 - v[6]) * a[6]
			dv7 := (vb7 - v[7]) * a[7]
			v[0] += dv0
			v[1] += dv1
			v[2] += dv2
			v[3] += dv3
			v[4] += dv4
			v[5] += dv5
			v[6] += dv6
			v[7] += dv7
			// Charge conservation. The product stays divided by the
			// bitline capacitance: a precomputed capF/BitFF ratio would
			// round differently.
			vb0 -= dv0 * cf[0] / bitFF
			vb1 -= dv1 * cf[1] / bitFF
			vb2 -= dv2 * cf[2] / bitFF
			vb3 -= dv3 * cf[3] / bitFF
			vb4 -= dv4 * cf[4] / bitFF
			vb5 -= dv5 * cf[5] / bitFF
			vb6 -= dv6 * cf[6] / bitFF
			vb7 -= dv7 * cf[7] / bitFF
		}
	}
	return [lanes]float64{vb0 - h, vb1 - h, vb2 - h, vb3 - h, vb4 - h, vb5 - h, vb6 - h, vb7 - h}
}

// MonteCarlo runs the Fig. 15 experiment: `sets` independent samples of an
// N-row MAJ3(1,1,0) activation at the given process-variation fraction
// (e.g. 0.4 for ±40%), returning the per-sample bitline perturbations and
// the fraction of samples whose amplifier resolves the correct majority
// (logic 1 for two 1-operands vs one 0-operand).
type MonteCarlo struct {
	Circuit Circuit
	Seed    uint64
	// SenseOffsetV is the amplifier's input-referred offset sigma (V).
	SenseOffsetV float64
}

// NewMonteCarlo returns a simulator with the default circuit.
func NewMonteCarlo(seed uint64) *MonteCarlo {
	return &MonteCarlo{Circuit: DefaultCircuit(), Seed: seed, SenseOffsetV: 0.035}
}

// Result holds one Monte-Carlo sweep cell of Fig. 15.
type Result struct {
	N             int
	Variation     float64
	Perturbations []float64
	SuccessRate   float64
}

// Run simulates `sets` samples of MAJ3(1,1,0) with n-row activation at the
// given variation fraction. For n == 1 a single charged cell is simulated
// (the paper's single-row reference distribution); otherwise n is any
// activation count ≥ 3, built as ⌊n/3⌋ copies of each operand plus n%3
// neutral cells (Fig. 15 sweeps 4, 8, 16 and 32).
//
// Every sample draws its cells and then its sense offset from its own
// source, so integrating samples in lockstep groups changes no draw.
func (mc *MonteCarlo) Run(n int, variation float64, sets int) (Result, error) {
	if err := mc.Circuit.Validate(); err != nil {
		return Result{}, err
	}
	if sets <= 0 {
		return Result{}, fmt.Errorf("spice: sets must be positive")
	}
	if variation < 0 || variation >= 1 {
		return Result{}, fmt.Errorf("spice: variation %v outside [0,1)", variation)
	}
	if n != 1 && n < 3 {
		return Result{}, fmt.Errorf("spice: unsupported row count %d", n)
	}

	res := Result{N: n, Variation: variation, Perturbations: make([]float64, 0, sets)}
	correct := 0
	var (
		lc      laneCells
		cells   []cell
		offsets [lanes]float64
	)
	for base := 0; base < sets; base += lanes {
		group := min(lanes, sets-base)
		for l := 0; l < group; l++ {
			src := xrand.NewSource(mc.Seed, uint64(n), uint64(base+l),
				uint64(math.Float64bits(variation)))
			cells = mc.buildCells(cells[:0], n, variation, src)
			if l == 0 {
				lc.reset(len(cells))
			}
			lc.load(l, cells, mc.Circuit.StepNS)
			if n != 1 {
				offsets[l] = mc.SenseOffsetV * src.Norm()
			}
		}
		deltas := mc.Circuit.transient(&lc)
		for l, delta := range deltas[:group] {
			res.Perturbations = append(res.Perturbations, delta)
			// The amplifier resolves sign(delta + offset); MAJ3(1,1,0) = 1.
			if n != 1 && delta+offsets[l] > 0 {
				correct++
			}
		}
	}
	if n != 1 {
		res.SuccessRate = float64(correct) / float64(sets)
	}
	return res, nil
}

// buildCells appends the MAJ3(1,1,0) cell population for n-row activation
// to dst: ⌊n/3⌋ copies of each operand (1,1,0) and n%3 neutral VDD/2
// cells, parameters varied uniformly by ±variation.
func (mc *MonteCarlo) buildCells(dst []cell, n int, variation float64, src *xrand.Source) []cell {
	c := mc.Circuit
	varyCap := func() float64 {
		f := 1 + variation*src.Norm()
		if f < 0.15 {
			f = 0.15
		}
		return c.CellFF * f
	}
	varyG := func() float64 {
		return c.GOnUS * math.Exp(c.GVarLambda*variation*src.Norm())
	}
	mk := func(v float64) cell { return cell{v: v, capF: varyCap(), g: varyG()} }
	if n == 1 {
		return append(dst, mk(c.VDD))
	}
	for i := 0; i < n/3; i++ {
		dst = append(dst, mk(c.VDD), mk(c.VDD), mk(0))
	}
	for i := 0; i < n%3; i++ {
		dst = append(dst, mk(c.VDD/2))
	}
	return dst
}

// Variations lists Fig. 15's process-variation fractions.
var Variations = []float64{0, 0.10, 0.20, 0.30, 0.40}

// RowCounts lists Fig. 15's activation counts (1 is the single-row
// reference of Fig. 15a; success is reported for the rest).
var RowCounts = []int{1, 4, 8, 16, 32}
