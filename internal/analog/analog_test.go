package analog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.VDD = 0 },
		func(p *Params) { p.VPPNominal = -1 },
		func(p *Params) { p.BitlineCapRatio = 0 },
		func(p *Params) { p.SenseThresholdMedian = 0 },
		func(p *Params) { p.SenseThresholdSigmaLn = 0 },
		func(p *Params) { p.TransientNoiseSigma = -1 },
		func(p *Params) { p.SenseLatchTime = 0 },
		func(p *Params) { p.CellCapSigma = -0.1 },
		func(p *Params) { p.WriteWeakProb = 1.5 },
		func(p *Params) { p.CopyWeakBase = -0.1 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestEnvValidate(t *testing.T) {
	if err := NominalEnv().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Env{{TempC: -10, VPP: 2.5}, {TempC: 200, VPP: 2.5}, {TempC: 50, VPP: 1.0}, {TempC: 50, VPP: 5}}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("Env %+v should be invalid", e)
		}
	}
}

func TestPerturbationBalancedCellsCancel(t *testing.T) {
	p := DefaultParams()
	cells := []CellTerm{
		{Level: 1, CapFactor: 1, Weight: 1},
		{Level: -1, CapFactor: 1, Weight: 1},
	}
	if d := p.Perturbation(cells); math.Abs(d) > 1e-12 {
		t.Fatalf("balanced perturbation = %v, want 0", d)
	}
}

func TestPerturbationSingleCellMatchesUnit(t *testing.T) {
	p := DefaultParams()
	d := p.Perturbation([]CellTerm{{Level: 1, CapFactor: 1, Weight: 1}})
	if math.Abs(d-p.UnitSwing(1)) > 1e-12 {
		t.Fatalf("single-cell perturbation %v != unit swing %v", d, p.UnitSwing(1))
	}
}

func TestPerturbationSignFollowsMajority(t *testing.T) {
	p := DefaultParams()
	f := func(nOnes, nZeros uint8) bool {
		o, z := int(nOnes%16), int(nZeros%16)
		if o == z {
			return true
		}
		cells := make([]CellTerm, 0, o+z)
		for i := 0; i < o; i++ {
			cells = append(cells, CellTerm{Level: 1, CapFactor: 1, Weight: 1})
		}
		for i := 0; i < z; i++ {
			cells = append(cells, CellTerm{Level: -1, CapFactor: 1, Weight: 1})
		}
		d := p.Perturbation(cells)
		if o > z {
			return d > 0
		}
		return d < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbationFracCellNeutral(t *testing.T) {
	p := DefaultParams()
	withFrac := p.Perturbation([]CellTerm{
		{Level: 1, CapFactor: 1, Weight: 1},
		{Level: 0, CapFactor: 1, Weight: 1}, // perfect Frac cell
	})
	// The Frac cell contributes no charge but loads the bitline, so the
	// perturbation is smaller than a lone cell but still positive.
	alone := p.Perturbation([]CellTerm{{Level: 1, CapFactor: 1, Weight: 1}})
	if !(withFrac > 0 && withFrac < alone) {
		t.Fatalf("frac-loaded %v vs alone %v", withFrac, alone)
	}
}

// TestReplicationIncreasesPerturbation reproduces the §7.2 SPICE claim:
// MAJ3(1,1,0) with 32-row activation perturbs the bitline far more than
// with 4-row activation (the paper measures +159%).
func TestReplicationIncreasesPerturbation(t *testing.T) {
	p := DefaultParams()
	maj3 := func(n int) float64 {
		copies := n / 3
		cells := make([]CellTerm, 0, n)
		for i := 0; i < 2*copies; i++ {
			cells = append(cells, CellTerm{Level: 1, CapFactor: 1, Weight: 1})
		}
		for i := 0; i < copies; i++ {
			cells = append(cells, CellTerm{Level: -1, CapFactor: 1, Weight: 1})
		}
		for i := 0; i < n-3*copies; i++ {
			cells = append(cells, CellTerm{Level: 0, CapFactor: 1, Weight: 1})
		}
		return p.Perturbation(cells)
	}
	d4, d32 := maj3(4), maj3(32)
	gain := (d32 - d4) / d4
	if gain < 1.0 || gain > 3.0 {
		t.Fatalf("32-row vs 4-row perturbation gain = %.2f, want within [1,3] (paper: 1.59)", gain)
	}
}

func TestUnitSwingDecreasesWithN(t *testing.T) {
	p := DefaultParams()
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		u := p.UnitSwing(n)
		if u <= 0 || u >= prev {
			t.Fatalf("UnitSwing(%d) = %v not decreasing", n, u)
		}
		prev = u
	}
}

func TestSenseThresholdLognormal(t *testing.T) {
	p := DefaultParams()
	if got := p.SenseThreshold(0); math.Abs(got-p.SenseThresholdMedian) > 1e-12 {
		t.Fatalf("median draw = %v", got)
	}
	if p.SenseThreshold(1) <= p.SenseThreshold(0) {
		t.Fatal("threshold must increase with the draw")
	}
	if p.SenseThreshold(-10) <= 0 {
		t.Fatal("lognormal threshold must stay positive")
	}
}

func TestStableProbMonotone(t *testing.T) {
	p := DefaultParams()
	prev := 0.0
	for _, m := range []float64{-0.02, -0.01, 0, 0.005, 0.01, 0.02, 0.05} {
		got := p.StableProb(m, 8)
		if got < prev {
			t.Fatalf("StableProb not monotone at margin %v", m)
		}
		prev = got
	}
	if p.StableProb(0.05, 8) < 0.999 {
		t.Fatal("large margin should be ~always stable")
	}
	if p.StableProb(-0.05, 8) > 1e-6 {
		t.Fatal("large negative margin should be ~never stable")
	}
}

func TestStableProbZeroNoise(t *testing.T) {
	p := DefaultParams()
	p.TransientNoiseSigma = 0
	if p.StableProb(0.001, 100) != 1 || p.StableProb(-0.001, 100) != 0 {
		t.Fatal("zero-noise StableProb should be a step function")
	}
}

func TestDriveFactorTrends(t *testing.T) {
	p := DefaultParams()
	base := p.DriveFactor(NominalEnv())
	if math.Abs(base-1) > 1e-12 {
		t.Fatalf("nominal drive factor = %v, want 1", base)
	}
	hot := p.DriveFactor(Env{TempC: 90, VPP: 2.5})
	if hot <= base {
		t.Fatal("higher temperature must strengthen drive (Obs. 11)")
	}
	lowVPP := p.DriveFactor(Env{TempC: 50, VPP: 2.1})
	if lowVPP >= base {
		t.Fatal("VPP underscaling must weaken drive (Obs. 13)")
	}
	// Both effects are small: a few percent at the envelope edges.
	if hot > 1.15 || lowVPP < 0.9 {
		t.Fatalf("env effects too large: hot=%v lowVPP=%v", hot, lowVPP)
	}
}

func TestRFWeightGrowsWithTime(t *testing.T) {
	p := DefaultParams()
	if p.RFWeight(4.5) <= 1 {
		t.Fatal("RF weight must exceed 1")
	}
	if p.RFWeight(9) <= p.RFWeight(4.5) {
		t.Fatal("RF weight must grow with connect time")
	}
}

func TestLatchThresholdTrends(t *testing.T) {
	p := DefaultParams()
	e := NominalEnv()
	base := p.LatchThreshold(0, 2, e)
	if p.LatchThreshold(0, 32, e) <= base {
		t.Fatal("more rows must raise the latch threshold (decoder load)")
	}
	if p.LatchThreshold(0, 2, Env{TempC: 90, VPP: 2.5}) <= base {
		t.Fatal("heat must slightly raise the latch threshold (Obs. 3)")
	}
	if p.LatchThreshold(0, 2, Env{TempC: 50, VPP: 2.1}) <= base {
		t.Fatal("VPP underscaling must raise the latch threshold (Obs. 4)")
	}
	if p.LatchThreshold(1, 2, e) <= p.LatchThreshold(-1, 2, e) {
		t.Fatal("threshold must follow the static draw")
	}
}

func TestViabilityZTrends(t *testing.T) {
	p := DefaultParams()
	best := 4.5
	// More replication surplus → more viable.
	if p.ViabilityZ(3, 10, best, 1, 0) <= p.ViabilityZ(3, 1, best, 1, 0) {
		t.Fatal("replication must improve viability")
	}
	// Higher X at same copies → less viable.
	if p.ViabilityZ(9, 3, best, 1, 0) >= p.ViabilityZ(3, 3, best, 1, 0) {
		t.Fatal("higher X must hurt viability")
	}
	// Longer APA total → skew penalty.
	if p.ViabilityZ(3, 10, 6.0, 1, 0) >= p.ViabilityZ(3, 10, best, 1, 0) {
		t.Fatal("longer APA must hurt viability")
	}
	// No penalty below the best total.
	if p.ViabilityZ(3, 10, 3.0, 1, 0) != p.ViabilityZ(3, 10, best, 1, 0) {
		t.Fatal("no skew penalty below the best total")
	}
	// Manufacturer bias shifts viability.
	if p.ViabilityZ(9, 3, best, 1, -3) >= p.ViabilityZ(9, 3, best, 1, 0) {
		t.Fatal("negative profile bias must reduce viability")
	}
	// Structured data (low coupling factor) improves viability (Obs. 9).
	if p.ViabilityZ(7, 4, best, 0.05, 0) <= p.ViabilityZ(7, 4, best, 1, 0) {
		t.Fatal("structured data must improve viability")
	}
}

func TestShareLatchThreshold(t *testing.T) {
	p := DefaultParams()
	if got := p.ShareLatchThreshold(0); got != p.ShareLatchMean {
		t.Fatalf("median threshold = %v", got)
	}
	// t2 = 3 ns clears essentially every group; t2 = 1.5 ns almost none.
	if thr := p.ShareLatchThreshold(3); thr >= 3.0 {
		t.Fatalf("+3σ threshold %v should stay below 3 ns", thr)
	}
	if thr := p.ShareLatchThreshold(-1.5); thr <= 1.5 {
		t.Fatalf("-1.5σ threshold %v should stay above 1.5 ns", thr)
	}
}

func TestWriteFailProb(t *testing.T) {
	p := DefaultParams()
	base := p.WriteFailProb(8)
	if base != p.WriteWeakProb {
		t.Fatalf("no load expected at 8 rows: %v", base)
	}
	if p.WriteFailProb(32) <= base {
		t.Fatal("32 open rows must raise WR failures (Obs. 1's 99.85%)")
	}
	if p.WriteFailProb(32) > 0.01 {
		t.Fatal("WR failures must stay small")
	}
	extreme := p
	extreme.WriteWeakProb = 0.5
	extreme.WriteLoadPerRow = 100
	if extreme.WriteFailProb(32) > 1 {
		t.Fatal("probability must clamp to 1")
	}
}

func TestCopyFailProbTrends(t *testing.T) {
	p := DefaultParams()
	e := NominalEnv()
	tras := 36.0
	base := p.CopyFailProb(false, 0, 2, e, 36, tras)
	if base <= 0 || base > 1e-3 {
		t.Fatalf("base copy failure = %v, want tiny but positive", base)
	}
	if p.CopyFailProb(false, 0, 32, e, 36, tras) <= base {
		t.Fatal("row load must increase copy failures")
	}
	// All-1s rows at high row counts are the weak direction (Obs. 16).
	ones := p.CopyFailProb(true, 1.0, 32, e, 36, tras)
	zeros := p.CopyFailProb(false, 0.0, 32, e, 36, tras)
	if ones <= zeros {
		t.Fatal("all-1s must fail more than all-0s at 32-row load")
	}
	// Balanced random rows pay no collective droop.
	if p.CopyFailProb(true, 0.5, 32, e, 36, tras) != zeros {
		t.Fatal("balanced rows should not pay the droop penalty")
	}
	if p.CopyFailProb(true, 1.0, 8, e, 36, tras) != p.CopyFailProb(false, 0, 8, e, 36, tras) {
		t.Fatal("at low load, 1s and 0s should fail equally")
	}
	// VPP underscaling increases failures (Obs. 18).
	if p.CopyFailProb(false, 0, 32, Env{TempC: 50, VPP: 2.1}, 36, tras) <= zeros {
		t.Fatal("VPP underscaling must increase copy failures")
	}
	// Short restore (t1=18 < tRAS) adds a penalty (Fig. 10).
	if p.CopyFailProb(false, 0, 32, e, 18, tras) <= zeros {
		t.Fatal("short restore must add failures")
	}
	// Probabilities are clamped to 1.
	extreme := p
	extreme.CopyWeakBase = 0.9
	extreme.CopyLoadCoeff = 10
	if got := extreme.CopyFailProb(false, 0, 32, e, 36, tras); got > 1 {
		t.Fatalf("failure probability %v > 1", got)
	}
}

func TestNormCDF(t *testing.T) {
	if math.Abs(normCDF(0)-0.5) > 1e-12 {
		t.Fatal("Φ(0) != 0.5")
	}
	if math.Abs(normCDF(1.96)-0.975) > 1e-3 {
		t.Fatalf("Φ(1.96) = %v", normCDF(1.96))
	}
	if normCDF(-5) > 1e-6 || normCDF(5) < 1-1e-6 {
		t.Fatal("tails wrong")
	}
}
