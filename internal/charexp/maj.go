package charexp

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/timing"
)

// MAJWidths lists the characterized majority widths.
var MAJWidths = []int{3, 5, 7, 9}

// MAJRowCounts returns the activated-row counts Fig. 7–9 test for a
// majority width: the smallest power of two holding X operands, up to 32.
func MAJRowCounts(x int) []int {
	var out []int
	for _, n := range []int{4, 8, 16, 32} {
		if n >= x {
			out = append(out, n)
		}
	}
	return out
}

// Figure6Result is the Fig. 6 MAJ3 timing sweep.
type Figure6Result struct {
	Cells []TimingCell
}

// Cell returns the summary for a (t1, t2, n) combination.
func (f Figure6Result) Cell(t1, t2 float64, n int) (stats.Summary, bool) {
	for _, c := range f.Cells {
		if c.T1 == t1 && c.T2 == t2 && c.N == n {
			return c.Summary, true
		}
	}
	return stats.Summary{}, false
}

// Figure6 characterizes the effect of timing delays and replication on
// MAJ3 (Obs. 6–7).
func (r *Runner) Figure6() (Figure6Result, error) {
	var out Figure6Result
	var cells []sweepCell
	for _, t1 := range timing.SweepT1SiMRA {
		for _, t2 := range timing.SweepT2 {
			for _, n := range MAJRowCounts(3) {
				cells = append(cells, sweepCell{sc: core.SweepConfig{
					Op: core.OpMAJ, X: 3, N: n,
					Timings: timing.APATimings{T1: t1, T2: t2},
					Pattern: dram.PatternRandom,
				}, env: analog.NominalEnv()})
				out.Cells = append(out.Cells, TimingCell{T1: t1, T2: t2, N: n})
			}
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure6Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 6.
func (f Figure6Result) Table() Table {
	t := Table{
		ID:      "Fig6",
		Title:   "Effect of t1, t2 and replication on MAJ3 success rate",
		Columns: append([]string{"t1(ns)", "t2(ns)", "rows"}, summaryColumns...),
	}
	for _, c := range f.Cells {
		row := []string{
			fmt.Sprintf("%.1f", c.T1), fmt.Sprintf("%.1f", c.T2), fmt.Sprint(c.N),
		}
		t.Rows = append(t.Rows, append(row, summaryCells(c.Summary)...))
	}
	return t
}

// MAJCell is one (X, axis value, N) cell of Figs. 7–9.
type MAJCell struct {
	X       int
	N       int
	Pattern dram.Pattern // Fig. 7 only
	Level   float64      // Fig. 8 (°C) / Fig. 9 (V) only
	Summary stats.Summary
}

// Figure7Result is the Fig. 7 data-pattern characterization of MAJX.
type Figure7Result struct {
	Cells []MAJCell
}

// Mean returns the mean success rate for (x, pattern, n).
func (f Figure7Result) Mean(x int, p dram.Pattern, n int) (float64, bool) {
	for _, c := range f.Cells {
		if c.X == x && c.Pattern == p && c.N == n {
			return c.Summary.Mean, true
		}
	}
	return 0, false
}

// Figure7 characterizes MAJ3/5/7/9 under the five data patterns
// (Obs. 8–10). MAJ widths beyond a manufacturer's limit are pooled from
// the manufacturers that support them, as the paper does (footnote 11).
func (r *Runner) Figure7() (Figure7Result, error) {
	var out Figure7Result
	var cells []sweepCell
	for _, x := range MAJWidths {
		for _, p := range dram.MAJPatterns {
			for _, n := range MAJRowCounts(x) {
				cells = append(cells, sweepCell{sc: core.SweepConfig{
					Op: core.OpMAJ, X: x, N: n,
					Timings: timing.BestMAJ(),
					Pattern: p,
				}, env: analog.NominalEnv()})
				out.Cells = append(out.Cells, MAJCell{X: x, N: n, Pattern: p})
			}
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure7Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 7.
func (f Figure7Result) Table() Table {
	t := Table{
		ID:      "Fig7",
		Title:   "MAJX success rates with different data patterns",
		Columns: append([]string{"MAJ", "pattern", "rows"}, summaryColumns...),
	}
	for _, c := range f.Cells {
		row := []string{fmt.Sprint(c.X), c.Pattern.String(), fmt.Sprint(c.N)}
		t.Rows = append(t.Rows, append(row, summaryCells(c.Summary)...))
	}
	return t
}

// FigureMAJEnvResult holds Fig. 8 (temperature) or Fig. 9 (VPP).
type FigureMAJEnvResult struct {
	Axis  string
	Cells []MAJCell
}

// Mean returns the mean success rate for (x, level, n).
func (f FigureMAJEnvResult) Mean(x int, level float64, n int) (float64, bool) {
	for _, c := range f.Cells {
		if c.X == x && c.Level == level && c.N == n {
			return c.Summary.Mean, true
		}
	}
	return 0, false
}

// Figure8 characterizes MAJX across temperature (Obs. 11–12).
func (r *Runner) Figure8() (FigureMAJEnvResult, error) {
	return r.majEnvSweep("temperature", timing.SweepTemperature,
		func(level float64) analog.Env { return analog.Env{TempC: level, VPP: 2.5} })
}

// Figure9 characterizes MAJX across wordline voltage (Obs. 13).
func (r *Runner) Figure9() (FigureMAJEnvResult, error) {
	return r.majEnvSweep("VPP", timing.SweepVPP,
		func(level float64) analog.Env { return analog.Env{TempC: 50, VPP: level} })
}

func (r *Runner) majEnvSweep(axis string, levels []float64,
	env func(float64) analog.Env) (FigureMAJEnvResult, error) {

	out := FigureMAJEnvResult{Axis: axis}
	var cells []sweepCell
	for _, x := range MAJWidths {
		for _, level := range levels {
			for _, n := range MAJRowCounts(x) {
				cells = append(cells, sweepCell{sc: core.SweepConfig{
					Op: core.OpMAJ, X: x, N: n,
					Timings: timing.BestMAJ(),
					Pattern: dram.PatternRandom,
				}, env: env(level)})
				out.Cells = append(out.Cells, MAJCell{X: x, N: n, Level: level})
			}
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return FigureMAJEnvResult{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 8 or Fig. 9.
func (f FigureMAJEnvResult) Table() Table {
	id := "Fig8"
	if f.Axis == "VPP" {
		id = "Fig9"
	}
	t := Table{
		ID:      id,
		Title:   "MAJX success rate vs " + f.Axis,
		Columns: append([]string{"MAJ", f.Axis, "rows"}, summaryColumns...),
	}
	for _, c := range f.Cells {
		row := []string{fmt.Sprint(c.X), fmt.Sprintf("%g", c.Level), fmt.Sprint(c.N)}
		t.Rows = append(t.Rows, append(row, summaryCells(c.Summary)...))
	}
	return t
}
