package charexp

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/timing"
)

// ActivationRows lists the simultaneously-activated-row counts of Figs.
// 3 and 4.
var ActivationRows = []int{2, 4, 8, 16, 32}

// TimingCell is one (t1, t2, N) cell of a timing-sweep figure.
type TimingCell struct {
	T1, T2  float64
	N       int
	Summary stats.Summary
}

// Figure3Result is the Fig. 3 timing sweep of simultaneous many-row
// activation.
type Figure3Result struct {
	Cells []TimingCell
}

// Cell returns the summary for a (t1, t2, n) combination.
func (f Figure3Result) Cell(t1, t2 float64, n int) (stats.Summary, bool) {
	for _, c := range f.Cells {
		if c.T1 == t1 && c.T2 == t2 && c.N == n {
			return c.Summary, true
		}
	}
	return stats.Summary{}, false
}

// Figure3 characterizes the effect of t1 and t2 on the success rate of
// simultaneous many-row activation (§4, Obs. 1–2).
func (r *Runner) Figure3() (Figure3Result, error) {
	var out Figure3Result
	var cells []sweepCell
	for _, t1 := range timing.SweepT1SiMRA {
		for _, t2 := range timing.SweepT2 {
			for _, n := range ActivationRows {
				cells = append(cells, sweepCell{sc: core.SweepConfig{
					Op:      core.OpManyRowActivation,
					N:       n,
					Timings: timing.APATimings{T1: t1, T2: t2},
					Pattern: dram.PatternRandom,
				}, env: analog.NominalEnv()})
				out.Cells = append(out.Cells, TimingCell{T1: t1, T2: t2, N: n})
			}
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure3Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders Fig. 3's subplot grid as rows.
func (f Figure3Result) Table() Table {
	t := Table{
		ID:      "Fig3",
		Title:   "Effect of t1 and t2 on simultaneous many-row activation success rate",
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

// EnvCell is one (environment level, N) cell of Fig. 4/8/9/12.
type EnvCell struct {
	Level   float64 // temperature (°C) or VPP (V)
	N       int
	Summary stats.Summary
}

// Figure4Result holds one environmental sweep of simultaneous many-row
// activation (Fig. 4a: temperature; Fig. 4b: VPP).
type Figure4Result struct {
	Axis  string // "temperature" or "VPP"
	Cells []EnvCell
}

// Mean returns the average success rate at (level, n).
func (f Figure4Result) Mean(level float64, n int) (float64, bool) {
	for _, c := range f.Cells {
		if c.Level == level && c.N == n {
			return c.Summary.Mean, true
		}
	}
	return 0, false
}

// Figure4a sweeps temperature at the best activation timings (Obs. 3).
func (r *Runner) Figure4a() (Figure4Result, error) {
	return r.activationEnvSweep("temperature", timing.SweepTemperature,
		func(level float64) analog.Env { return analog.Env{TempC: level, VPP: 2.5} })
}

// Figure4b sweeps wordline voltage at the best activation timings
// (Obs. 4). The paper restricts voltage experiments to two modules
// (footnote 9); the runner uses whatever fleet it was configured with.
func (r *Runner) Figure4b() (Figure4Result, error) {
	return r.activationEnvSweep("VPP", timing.SweepVPP,
		func(level float64) analog.Env { return analog.Env{TempC: 50, VPP: level} })
}

func (r *Runner) activationEnvSweep(axis string, levels []float64,
	env func(float64) analog.Env) (Figure4Result, error) {

	out := Figure4Result{Axis: axis}
	var cells []sweepCell
	for _, level := range levels {
		for _, n := range ActivationRows {
			cells = append(cells, sweepCell{sc: core.SweepConfig{
				Op:      core.OpManyRowActivation,
				N:       n,
				Timings: timing.BestSiMRA(),
				Pattern: dram.PatternRandom,
			}, env: env(level)})
			out.Cells = append(out.Cells, EnvCell{Level: level, N: n})
		}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Figure4Result{}, err
	}
	for i := range out.Cells {
		out.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return out, nil
}

// Table renders the environmental sweep.
func (f Figure4Result) Table() Table {
	id := "Fig4a"
	if f.Axis == "VPP" {
		id = "Fig4b"
	}
	t := Table{
		ID:      id,
		Title:   "Many-row activation success rate vs " + f.Axis,
		Columns: []string{f.Axis, "rows", "mean"},
	}
	for _, c := range f.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", c.Level), fmt.Sprint(c.N), pct(c.Summary.Mean),
		})
	}
	return t
}

// Figure5Result is the power comparison of Fig. 5.
type Figure5Result struct {
	SiMRAmW    map[int]float64    // rows → mW
	StandardMW map[string]float64 // op label → mW
	Margin32   float64            // fraction 32-row sits below REF
}

// Figure5 evaluates the power model (Obs. 5).
func (r *Runner) Figure5() (Figure5Result, error) {
	m := power.Default()
	if err := m.Validate(); err != nil {
		return Figure5Result{}, err
	}
	out := Figure5Result{
		SiMRAmW:    make(map[int]float64, len(ActivationRows)),
		StandardMW: make(map[string]float64, len(power.Ops)),
	}
	for _, n := range ActivationRows {
		p, err := m.SiMRA(n)
		if err != nil {
			return Figure5Result{}, err
		}
		out.SiMRAmW[n] = p
	}
	for _, op := range power.Ops {
		p, err := m.Standard(op)
		if err != nil {
			return Figure5Result{}, err
		}
		out.StandardMW[op.String()] = p
	}
	margin, err := m.MarginBelowRef(32)
	if err != nil {
		return Figure5Result{}, err
	}
	out.Margin32 = margin
	return out, nil
}

// Table renders Fig. 5.
func (f Figure5Result) Table() Table {
	t := Table{
		ID:      "Fig5",
		Title:   "Power of simultaneous many-row activation vs standard DRAM operations",
		Columns: []string{"operation", "power (mW)"},
	}
	for _, n := range sortedKeys(f.SiMRAmW) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SiMRA %d-row", n), fmt.Sprintf("%.1f", f.SiMRAmW[n]),
		})
	}
	for _, op := range []string{"ACT+PRE", "RD", "WR", "REF"} {
		t.Rows = append(t.Rows, []string{op, fmt.Sprintf("%.1f", f.StandardMW[op])})
	}
	t.Rows = append(t.Rows, []string{
		"32-row margin below REF", fmt.Sprintf("%.2f%%", f.Margin32*100),
	})
	return t
}
