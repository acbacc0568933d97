package analog

import "math"

// CellTerm is one activated cell's contribution to a bitline.
type CellTerm struct {
	// Level is the signed stored level: +1 for a fully charged cell (VDD),
	// -1 for a discharged cell (0 V), and a small residual for a Frac
	// (VDD/2) neutral cell.
	Level float64
	// CapFactor is the cell's relative capacitance, 1+γ with γ the static
	// process variation.
	CapFactor float64
	// Weight is the charge-transfer weight (wordline drive × connect time),
	// 1 for a nominally connected cell.
	Weight float64
}

// Perturbation computes the bitline voltage deviation (V) from VDD/2 after
// charge sharing with the given cells:
//
//	δ = (VDD/2) · Σ wᵢ·cᵢ·sᵢ / (Cb/Cc + Σ wᵢ·cᵢ)
//
// A positive δ means the sense amplifier resolves toward VDD (logic 1).
func (p Params) Perturbation(cells []CellTerm) float64 {
	num := 0.0
	den := p.BitlineCapRatio
	for _, c := range cells {
		wc := c.Weight * c.CapFactor
		num += wc * c.Level
		den += wc
	}
	if den <= 0 {
		return 0
	}
	return p.VDD / 2 * num / den
}

// UnitSwing returns the bitline deviation contributed by a single nominal
// cell when n rows are simultaneously activated: the margin quantum of an
// n-row PUD operation.
func (p Params) UnitSwing(n int) float64 {
	return p.VDD / 2 / (p.BitlineCapRatio + float64(n))
}

// SenseThreshold maps a static standard-normal draw to a per-column
// reliable sensing margin (V), lognormally distributed around the median.
func (p Params) SenseThreshold(norm float64) float64 {
	return p.SenseThresholdMedian * math.Exp(p.SenseThresholdSigmaLn*norm)
}

// CouplingNoise maps a static standard-normal draw to a per-column
// bitline coupling-noise offset (V) for a data pattern with the given
// coupling factor (1 for fully random data, ~0 for solid patterns).
func (p Params) CouplingNoise(norm, patternFactor float64) float64 {
	return p.CouplingSigma * patternFactor * norm
}

// StableProb returns the probability that a sensing event with the given
// static margin passes all `trials` independent trials under transient
// noise. It is the closed form the trial loop converges to; used by the
// analytical fast path and tests.
func (p Params) StableProb(margin float64, trials int) float64 {
	if p.TransientNoiseSigma == 0 {
		if margin > 0 {
			return 1
		}
		return 0
	}
	single := normCDF(margin / p.TransientNoiseSigma)
	return math.Pow(single, float64(trials))
}

// RFWeight returns the charge-transfer weight of the first-activated row,
// which remains connected for t1+t2 ns before the remaining rows join.
func (p Params) RFWeight(totalNS float64) float64 {
	return 1 + p.RFShareRate*totalNS
}

// LatchThreshold maps a static standard-normal draw to a per-row
// predecoder-latch settling threshold (ns): the row's local wordline
// asserts only if t2 meets it. The threshold rises with the number of
// simultaneously asserted rows (decoder load) and shifts slightly with
// temperature, VPP underscaling and operational aging.
func (p Params) LatchThreshold(norm float64, nRows int, e Env) float64 {
	return p.LatchMean(nRows, e) + p.LatchSettleSigma*norm
}

// LatchMean is the row-invariant part of LatchThreshold: the mean latch
// settling threshold (ns) for nRows simultaneously asserted rows under
// env e. Callers that threshold many rows at once compute it once and add
// LatchSettleSigma·norm per row, the identical float sequence.
func (p Params) LatchMean(nRows int, e Env) float64 {
	mean := p.LatchSettleMean
	if nRows > 1 {
		mean += p.LatchLoadPerLog2N * math.Log2(float64(nRows))
	}
	mean += p.LatchTempCoeff * (e.TempC - 50)
	mean += p.LatchVPPCoeff * (p.VPPNominal - e.VPP)
	mean += p.AgingLatchPerYear * e.Aging
	mean += p.DisturbLatchPerUnit * e.Disturb
	return mean
}

// WLThreshold maps a static standard-normal draw to a per-row wordline
// settling threshold (ns) that t1+t2 must meet.
func (p Params) WLThreshold(norm float64) float64 {
	return p.WLSettleMean + p.WLSettleSigma*norm
}

// ViabilityZ computes the z-score bound of the group-viability draw for a
// majority operation with X operands replicated `copies` times under the
// given APA total time (t1+t2, ns) and data-pattern coupling factor.
// profileBias is the manufacturer's adjustment (0 for Mfr. H). A group
// whose static normal draw is below the returned z resolves
// deterministically; otherwise it is metastable.
func (p Params) ViabilityZ(x, copies int, totalNS, couplingFactor, profileBias float64) float64 {
	z := p.ViabilityBase + p.ViabilityPerCopy*float64(copies) -
		p.ViabilityPerX*float64(x) + profileBias
	z += p.PatternViabilityBonus * (1 - couplingFactor)
	if extra := totalNS - p.ViabilityBestTotal; extra > 0 {
		z -= p.SkewPenaltyPerNS * extra
	}
	return z
}

// ShareLatchThreshold maps a static standard-normal draw to a per-group
// minimum t2 (ns) below which share-mode sensing is metastable.
func (p Params) ShareLatchThreshold(norm float64) float64 {
	return p.ShareLatchMean + p.ShareLatchSigma*norm
}

// WriteFailProb returns the per-cell probability that a WR overdrive
// misses a cell while nOpen rows are simultaneously open.
func (p Params) WriteFailProb(nOpen int) float64 {
	f := p.WriteWeakProb
	if nOpen > p.WriteLoadRows {
		f *= 1 + p.WriteLoadPerRow*float64(nOpen-p.WriteLoadRows)
	}
	if f > 1 {
		f = 1
	}
	return f
}

// CopyFailProb returns the per-cell failure probability of a driven
// (sense-amp-latched) copy into one of nAct simultaneously activated rows,
// for a destination bit of the given value, given the fraction of 1s in
// the copied row (collective pull-up droop), under the environment, with
// the given t1 (to model the short-restore penalty of t1 < tRAS).
func (p Params) CopyFailProb(value bool, onesFrac float64, nAct int, e Env, t1, tRAS float64) float64 {
	f := p.CopyWeakBase * (1 + p.CopyLoadCoeff*float64(nAct-2))
	if value && nAct > p.CopyOnesLoadRows && onesFrac > p.CopyOnesFracKnee {
		loadScale := float64(nAct-p.CopyOnesLoadRows) / float64(p.CopyOnesLoadRows)
		fracScale := (onesFrac - p.CopyOnesFracKnee) / (1 - p.CopyOnesFracKnee)
		f += p.CopyOnesExtra * loadScale * fracScale
	}
	if under := p.VPPNominal - e.VPP; under > 0 {
		f += p.CopyVPPCoeff * under * float64(nAct) / 32
	}
	if dt := e.TempC - 50; dt > 0 {
		f += p.CopyTempCoeff * dt
	}
	if t1 < tRAS {
		f += p.CopyShortRestorePenalty
	}
	f += p.RetentionCopyPerUnit * e.Retention
	if f > 1 {
		f = 1
	}
	return f
}

// normCDF is the standard normal CDF via erf.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
