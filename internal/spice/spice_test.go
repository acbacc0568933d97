package spice

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// scalarTransient is the one-sample forward-Euler integration the lane
// kernel replaced, kept as its test oracle: one dependency chain per
// sample, the relaxation factor recomputed at every step.
func scalarTransient(c Circuit, cells []cell) float64 {
	vb := c.VDD / 2
	vs := make([]float64, len(cells))
	for i, cl := range cells {
		vs[i] = cl.v
	}
	steps := int(c.ShareNS / c.StepNS)
	for s := 0; s < steps; s++ {
		for i, cl := range cells {
			alpha := 1 - math.Exp(-cl.g/cl.capF*c.StepNS)
			dv := (vb - vs[i]) * alpha
			vs[i] += dv
			vb -= dv * cl.capF / c.BitFF // charge conservation
		}
	}
	return vb - c.VDD/2
}

// scalarRun is MonteCarlo.Run as it was before lane interleaving, kept as
// the differential oracle: one sample at a time, each integrated alone.
func scalarRun(mc *MonteCarlo, n int, variation float64, sets int) Result {
	res := Result{N: n, Variation: variation, Perturbations: make([]float64, 0, sets)}
	correct := 0
	for set := 0; set < sets; set++ {
		src := xrand.NewSource(mc.Seed, uint64(n), uint64(set),
			uint64(math.Float64bits(variation)))
		delta := scalarTransient(mc.Circuit, mc.buildCells(nil, n, variation, src))
		res.Perturbations = append(res.Perturbations, delta)
		if n != 1 {
			offset := mc.SenseOffsetV * src.Norm()
			if delta+offset > 0 {
				correct++
			}
		}
	}
	if n != 1 {
		res.SuccessRate = float64(correct) / float64(sets)
	}
	return res
}

// transientOne integrates a single sample through the lane kernel.
func transientOne(c Circuit, cells []cell) float64 {
	var lc laneCells
	lc.reset(len(cells))
	lc.load(0, cells, c.StepNS)
	return c.transient(&lc)[0]
}

// sameResult reports whether two Monte-Carlo results agree bit for bit.
func sameResult(a, b Result) bool {
	if a.N != b.N || math.Float64bits(a.Variation) != math.Float64bits(b.Variation) ||
		math.Float64bits(a.SuccessRate) != math.Float64bits(b.SuccessRate) ||
		len(a.Perturbations) != len(b.Perturbations) {
		return false
	}
	for i := range a.Perturbations {
		if math.Float64bits(a.Perturbations[i]) != math.Float64bits(b.Perturbations[i]) {
			return false
		}
	}
	return true
}

// TestLaneKernelMatchesScalar pins the lane kernel bit for bit against
// the one-sample oracle on every Fig. 15 row count and variation, with
// set counts 1–21 so that every partial tail group is covered.
func TestLaneKernelMatchesScalar(t *testing.T) {
	mc := NewMonteCarlo(11)
	for _, n := range RowCounts {
		for _, pv := range Variations {
			for sets := 1; sets <= 21; sets++ {
				got, err := mc.Run(n, pv, sets)
				if err != nil {
					t.Fatal(err)
				}
				if want := scalarRun(mc, n, pv, sets); !sameResult(got, want) {
					t.Fatalf("n=%d pv=%v sets=%d: lanes %+v, scalar %+v", n, pv, sets, got, want)
				}
			}
		}
	}
}

// FuzzTransientLanes checks the lane kernel against the one-sample oracle
// for arbitrary seeds, row counts (including ones Fig. 15 does not sweep),
// variations and set counts.
func FuzzTransientLanes(f *testing.F) {
	f.Add(uint64(1), uint8(4), 0.4, uint8(7))
	f.Add(uint64(2), uint8(1), 0.0, uint8(1))
	f.Add(uint64(3), uint8(32), 0.2, uint8(21))
	f.Add(uint64(4), uint8(5), 0.99, uint8(13))
	f.Fuzz(func(t *testing.T, seed uint64, nb uint8, variation float64, setsb uint8) {
		n := int(nb%40) + 1
		if n == 2 {
			n = 1
		}
		if math.IsNaN(variation) || math.IsInf(variation, 0) {
			t.Skip()
		}
		variation = math.Mod(math.Abs(variation), 1)
		sets := int(setsb%21) + 1
		mc := NewMonteCarlo(seed)
		got, err := mc.Run(n, variation, sets)
		if err != nil {
			t.Fatal(err)
		}
		if want := scalarRun(mc, n, variation, sets); !sameResult(got, want) {
			t.Fatalf("n=%d pv=%v sets=%d: lanes %+v, scalar %+v", n, variation, sets, got, want)
		}
	})
}

func TestDefaultCircuitValid(t *testing.T) {
	if err := DefaultCircuit().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitValidateRejects(t *testing.T) {
	c := DefaultCircuit()
	c.BitFF = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero bitline cap should fail")
	}
	c = DefaultCircuit()
	c.StepNS = 100
	if err := c.Validate(); err == nil {
		t.Fatal("step above window should fail")
	}
}

// TestTransientSingleCellApproachesChargeShare: with a long window the
// transient converges to the analytic charge-sharing limit
// (VDD/2)·Cc/(Cb+Cc).
func TestTransientSingleCellConverges(t *testing.T) {
	c := DefaultCircuit()
	c.ShareNS = 50 // long enough to fully settle
	got := transientOne(c, []cell{{v: c.VDD, capF: c.CellFF, g: c.GOnUS}})
	want := c.VDD / 2 * c.CellFF / (c.BitFF + c.CellFF)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("settled perturbation %v, analytic %v", got, want)
	}
}

func TestTransientBalancedCellsCancel(t *testing.T) {
	c := DefaultCircuit()
	got := transientOne(c, []cell{
		{v: c.VDD, capF: c.CellFF, g: c.GOnUS},
		{v: 0, capF: c.CellFF, g: c.GOnUS},
	})
	if math.Abs(got) > 1e-3 {
		t.Fatalf("balanced perturbation = %v, want ~0", got)
	}
}

func TestRunValidation(t *testing.T) {
	mc := NewMonteCarlo(1)
	if _, err := mc.Run(4, 0.1, 0); err == nil {
		t.Fatal("zero sets should fail")
	}
	if _, err := mc.Run(4, -0.1, 10); err == nil {
		t.Fatal("negative variation should fail")
	}
	if _, err := mc.Run(2, 0.1, 10); err == nil {
		t.Fatal("row count 2 should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := NewMonteCarlo(7).Run(8, 0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMonteCarlo(7).Run(8, 0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.SuccessRate != b.SuccessRate {
		t.Fatal("Monte-Carlo must be deterministic per seed")
	}
	for i := range a.Perturbations {
		if a.Perturbations[i] != b.Perturbations[i] {
			t.Fatal("perturbations must be deterministic")
		}
	}
}

// TestFig15aPerturbationGrowsWithN: replication raises the mean bitline
// perturbation; 32-row MAJ3 sits far above 4-row (paper: +159%).
func TestFig15aPerturbationGrowsWithN(t *testing.T) {
	mc := NewMonteCarlo(3)
	mean := func(n int) float64 {
		r, err := mc.Run(n, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Mean(r.Perturbations)
	}
	m4, m8, m16, m32 := mean(4), mean(8), mean(16), mean(32)
	if !(m4 < m8 && m8 < m16 && m16 < m32) {
		t.Fatalf("perturbations not increasing: %v %v %v %v", m4, m8, m16, m32)
	}
	gain := (m32 - m4) / m4
	if gain < 0.8 || gain > 3.5 {
		t.Fatalf("32-vs-4-row gain = %.2f, want within [0.8, 3.5] (paper 1.59)", gain)
	}
}

// TestFig15aManyRowsBeatSingleRow: the paper observes that activating more
// than eight rows always yields a higher perturbation than single-row
// activation.
func TestFig15aManyRowsBeatSingleRow(t *testing.T) {
	mc := NewMonteCarlo(3)
	r1, err := mc.Run(1, 0.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	single := stats.Mean(r1.Perturbations)
	for _, n := range []int{16, 32} {
		rn, err := mc.Run(n, 0.2, 100)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Mean(rn.Perturbations) <= single {
			t.Fatalf("%d-row perturbation below single-row", n)
		}
	}
}

// TestFig15bSuccessCollapsesAt4Rows: 4-row MAJ3 success drops sharply
// under process variation (paper: −46.58% at 40%), while 32-row is nearly
// flat (−0.01%).
func TestFig15bSuccessUnderVariation(t *testing.T) {
	mc := NewMonteCarlo(9)
	run := func(n int, v float64) float64 {
		r, err := mc.Run(n, v, 400)
		if err != nil {
			t.Fatal(err)
		}
		return r.SuccessRate
	}
	s4at0, s4at40 := run(4, 0), run(4, 0.40)
	s32at0, s32at40 := run(32, 0), run(32, 0.40)
	drop4 := s4at0 - s4at40
	drop32 := s32at0 - s32at40
	if drop4 < 0.10 {
		t.Fatalf("4-row success drop = %.3f, want a collapse (paper: 0.466)", drop4)
	}
	if drop32 > 0.03 {
		t.Fatalf("32-row success drop = %.3f, want ~flat (paper: 0.0001)", drop32)
	}
	// The differential is the paper's key claim: replication makes MAJ3
	// orders of magnitude more robust to process variation.
	if drop4 < 5*drop32 {
		t.Fatalf("4-row drop %.3f should dwarf 32-row drop %.3f", drop4, drop32)
	}
	if s32at40 < 0.97 {
		t.Fatalf("32-row success at 40%% PV = %.3f, want ~1", s32at40)
	}
}

// TestSuccessMonotoneInN: at fixed variation, more replication never
// hurts.
func TestSuccessMonotoneInN(t *testing.T) {
	mc := NewMonteCarlo(5)
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32} {
		r, err := mc.Run(n, 0.3, 300)
		if err != nil {
			t.Fatal(err)
		}
		if r.SuccessRate+0.03 < prev { // small MC tolerance
			t.Fatalf("success fell from %.3f to %.3f at n=%d", prev, r.SuccessRate, n)
		}
		prev = r.SuccessRate
	}
}

func TestSweepAxes(t *testing.T) {
	if len(Variations) != 5 || Variations[4] != 0.40 {
		t.Fatalf("Variations = %v", Variations)
	}
	if len(RowCounts) != 5 || RowCounts[0] != 1 || RowCounts[4] != 32 {
		t.Fatalf("RowCounts = %v", RowCounts)
	}
}
