package main

import (
	"math"

	simra "repro"

	"repro/internal/charexp"
	"repro/internal/dram"
	"repro/internal/timing"
)

// gapConfig is the configuration the paper gap is measured at: the
// repository's default reduced-scale characterization, which the
// committed goldens also pin. The gap is a model-accuracy figure, so it
// is taken at this fixed reference rather than at the workload's small
// seeded shape, where sampling noise of a few percentage points would
// swamp it. It is deterministic: a change that only speeds up the
// simulator leaves it identical.
func gapConfig(workers int) simra.ExperimentConfig {
	fc := simra.DefaultFleetConfig()
	fc.Columns = 512
	cfg := simra.DefaultExperimentConfig()
	cfg.Fleet = simra.FleetRepresentative(fc)
	cfg.Engine = simra.EngineConfig{Workers: workers}
	return cfg
}

// headline is one of the paper's headline numbers, in percentage points,
// and how to read it off a char-sweep pass.
type headline struct {
	name  string
	paper float64
	sim   func(o charOut) float64
}

// headlines are the four numbers paper_gap_pp compares against.
var headlines = []headline{
	// Fig. 6: MAJ3 at the best MAJ timing, 32-row minus 4-row activation.
	{"fig6_maj3_32_vs_4", 30.81, func(o charOut) float64 {
		t := timing.BestMAJ()
		s32, _ := o.fig6.Cell(t.T1, t.T2, 32)
		s4, _ := o.fig6.Cell(t.T1, t.T2, 4)
		return 100 * (s32.Mean - s4.Mean)
	}},
	// Fig. 7: fixed data patterns minus random data, MAJX at 32 rows,
	// averaged over X.
	{"fig7_majx_pattern", 11.52, func(o charOut) float64 {
		var sum float64
		for _, x := range charexp.MAJWidths {
			random, _ := o.fig7.Mean(x, dram.PatternRandom, 32)
			var fixed float64
			for _, p := range dram.MAJPatterns[:4] {
				m, _ := o.fig7.Mean(x, p, 32)
				fixed += m / 4
			}
			sum += fixed - random
		}
		return 100 * sum / float64(len(charexp.MAJWidths))
	}},
	// Fig. 11: Multi-RowCopy spread across data patterns, averaged over
	// the destination counts.
	{"fig11_copy_pattern", 0.07, func(o charOut) float64 {
		var sum float64
		for _, d := range charexp.CopyDestinations {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, p := range dram.CopyPatterns {
				m, _ := o.fig11.Mean(p, d)
				lo, hi = math.Min(lo, m), math.Max(hi, m)
			}
			sum += hi - lo
		}
		return 100 * sum / float64(len(charexp.CopyDestinations))
	}},
	// Fig. 8: the largest MAJX spread across temperature at 32 rows.
	{"fig8_temp_spread", 2.13, func(o charOut) float64 {
		var worst float64
		for _, x := range charexp.MAJWidths {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, temp := range timing.SweepTemperature {
				m, _ := o.fig8.Mean(x, temp, 32)
				lo, hi = math.Min(lo, m), math.Max(hi, m)
			}
			worst = math.Max(worst, hi-lo)
		}
		return 100 * worst
	}},
}

// paperGap runs the headline figures at gapConfig and returns the mean
// absolute gap, in percentage points, between the simulator's headline
// numbers and the paper's, with the simulated values.
func paperGap(workers int) (gap float64, sim []float64, err error) {
	r, err := simra.NewExperiments(gapConfig(workers))
	if err != nil {
		return 0, nil, err
	}
	var o charOut
	if o.fig6, err = r.Figure6(); err != nil {
		return 0, nil, err
	}
	if o.fig7, err = r.Figure7(); err != nil {
		return 0, nil, err
	}
	if o.fig8, err = r.Figure8(); err != nil {
		return 0, nil, err
	}
	if o.fig11, err = r.Figure11(); err != nil {
		return 0, nil, err
	}
	for _, h := range headlines {
		v := h.sim(o)
		sim = append(sim, v)
		gap += math.Abs(v-h.paper) / float64(len(headlines))
	}
	return gap, sim, nil
}
