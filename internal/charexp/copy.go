package charexp

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/timing"
)

// CopyDestinations lists Fig. 10–12's destination-row counts; the
// activation group is one row larger (the source).
var CopyDestinations = []int{1, 3, 7, 15, 31}

// CopyCell is one Multi-RowCopy measurement.
type CopyCell struct {
	T1, T2  float64
	Dests   int
	Pattern dram.Pattern
	Level   float64
	Summary stats.Summary
}

// Figure10Result is the Fig. 10 Multi-RowCopy timing sweep.
type Figure10Result struct {
	Cells []CopyCell
}

// Cell returns the summary at (t1, t2, dests).
func (f Figure10Result) Cell(t1, t2 float64, dests int) (stats.Summary, bool) {
	for _, c := range f.Cells {
		if c.T1 == t1 && c.T2 == t2 && c.Dests == dests {
			return c.Summary, true
		}
	}
	return stats.Summary{}, false
}

// Figure10 characterizes the effect of timing delays on Multi-RowCopy
// (Obs. 14–15).
func (r *Runner) Figure10() (Figure10Result, error) {
	var out Figure10Result
	var cells []sweepCell
	for _, t1 := range timing.SweepT1Copy {
		for _, t2 := range timing.SweepT2 {
			for _, dests := range CopyDestinations {
				cells = append(cells, sweepCell{sc: core.SweepConfig{
					Op: core.OpMultiRowCopy, N: dests + 1,
					Timings: timing.APATimings{T1: t1, T2: t2},
					Pattern: dram.PatternRandom,
				}, env: analog.NominalEnv()})
				out.Cells = append(out.Cells, CopyCell{T1: t1, T2: t2, Dests: dests})
			}
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure10Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 10.
func (f Figure10Result) Table() Table {
	t := Table{
		ID:      "Fig10",
		Title:   "Effect of t1 and t2 on Multi-RowCopy success rate",
		Columns: append([]string{"t1(ns)", "t2(ns)", "dests"}, summaryColumns...),
	}
	for _, c := range f.Cells {
		row := []string{
			fmt.Sprintf("%.1f", c.T1), fmt.Sprintf("%.1f", c.T2), fmt.Sprint(c.Dests),
		}
		t.Rows = append(t.Rows, append(row, summaryCells(c.Summary)...))
	}
	return t
}

// Figure11Result is the Fig. 11 data-pattern dependence of Multi-RowCopy.
type Figure11Result struct {
	Cells []CopyCell
}

// Mean returns the mean success rate at (pattern, dests).
func (f Figure11Result) Mean(p dram.Pattern, dests int) (float64, bool) {
	for _, c := range f.Cells {
		if c.Pattern == p && c.Dests == dests {
			return c.Summary.Mean, true
		}
	}
	return 0, false
}

// Figure11 characterizes Multi-RowCopy under all-0s, all-1s and random
// data (Obs. 16).
func (r *Runner) Figure11() (Figure11Result, error) {
	var out Figure11Result
	var cells []sweepCell
	best := timing.BestCopy()
	for _, p := range dram.CopyPatterns {
		for _, dests := range CopyDestinations {
			cells = append(cells, sweepCell{sc: core.SweepConfig{
				Op: core.OpMultiRowCopy, N: dests + 1,
				Timings: best,
				Pattern: p,
			}, env: analog.NominalEnv()})
			out.Cells = append(out.Cells, CopyCell{
				T1: best.T1, T2: best.T2, Dests: dests, Pattern: p,
			})
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure11Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 11.
func (f Figure11Result) Table() Table {
	t := Table{
		ID:      "Fig11",
		Title:   "Data-pattern dependence of Multi-RowCopy",
		Columns: []string{"pattern", "dests", "mean"},
	}
	for _, c := range f.Cells {
		t.Rows = append(t.Rows, []string{
			c.Pattern.String(), fmt.Sprint(c.Dests), pct(c.Summary.Mean),
		})
	}
	return t
}

// Figure12Result is one environmental sweep of Multi-RowCopy (Fig. 12a:
// temperature, Fig. 12b: VPP).
type Figure12Result struct {
	Axis  string
	Cells []CopyCell
}

// Mean returns the mean success rate at (level, dests).
func (f Figure12Result) Mean(level float64, dests int) (float64, bool) {
	for _, c := range f.Cells {
		if c.Level == level && c.Dests == dests {
			return c.Summary.Mean, true
		}
	}
	return 0, false
}

// Figure12a characterizes Multi-RowCopy across temperature (Obs. 17).
func (r *Runner) Figure12a() (Figure12Result, error) {
	return r.copyEnvSweep("temperature", timing.SweepTemperature,
		func(level float64) analog.Env { return analog.Env{TempC: level, VPP: 2.5} })
}

// Figure12b characterizes Multi-RowCopy across wordline voltage (Obs. 18).
func (r *Runner) Figure12b() (Figure12Result, error) {
	return r.copyEnvSweep("VPP", timing.SweepVPP,
		func(level float64) analog.Env { return analog.Env{TempC: 50, VPP: level} })
}

func (r *Runner) copyEnvSweep(axis string, levels []float64,
	env func(float64) analog.Env) (Figure12Result, error) {

	out := Figure12Result{Axis: axis}
	var cells []sweepCell
	for _, level := range levels {
		for _, dests := range CopyDestinations {
			cells = append(cells, sweepCell{sc: core.SweepConfig{
				Op: core.OpMultiRowCopy, N: dests + 1,
				Timings: timing.BestCopy(),
				Pattern: dram.PatternRandom,
			}, env: env(level)})
			out.Cells = append(out.Cells, CopyCell{Dests: dests, Level: level})
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure12Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 12a or 12b.
func (f Figure12Result) Table() Table {
	id := "Fig12a"
	if f.Axis == "VPP" {
		id = "Fig12b"
	}
	t := Table{
		ID:      id,
		Title:   "Multi-RowCopy success rate vs " + f.Axis,
		Columns: []string{f.Axis, "dests", "mean"},
	}
	for _, c := range f.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", c.Level), fmt.Sprint(c.Dests), pct(c.Summary.Mean),
		})
	}
	return t
}
