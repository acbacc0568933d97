package charexp

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/timing"
)

// ActivationRows lists the simultaneously-activated-row counts of Figs.
// 3 and 4.
var ActivationRows = []int{2, 4, 8, 16, 32}

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

// CopyDestinations lists Fig. 10–12's destination-row counts; the
// activation group is one row larger (the source).
var CopyDestinations = []int{1, 3, 7, 15, 31}

// gridOp is what a grid figure's operation fixes: the timings and MAJ
// width it runs at when the figure does not sweep them, the row counts
// it runs at a width, and the row column's header. A copy figure counts
// destinations; each of its groups activates one more row, the source.
type gridOp struct {
	kind    core.OpKind
	best    timing.APATimings
	x       int
	rows    func(x int) []int
	source  int
	rowsCol string
}

var (
	activationOp = &gridOp{kind: core.OpManyRowActivation, best: timing.BestSiMRA(),
		rows: func(int) []int { return ActivationRows }, rowsCol: "rows"}
	majOp = &gridOp{kind: core.OpMAJ, best: timing.BestMAJ(), x: 3,
		rows: MAJRowCounts, rowsCol: "rows"}
	copyOp = &gridOp{kind: core.OpMultiRowCopy, best: timing.BestCopy(),
		rows: func(int) []int { return CopyDestinations }, source: 1, rowsCol: "dests"}
)

// The environment axes a grid figure can sweep. A temperature level runs
// at nominal VPP and a VPP level at the nominal 50 °C.
const (
	axisTemperature = "temperature"
	axisVPP         = "VPP"
)

// gridFigure declares one characterization grid figure: its id, title
// and operation, and the axes it sweeps. A nil axis is not swept: the
// figure runs the op's best timings and MAJ width, random data and the
// nominal environment. meanOnly prints the mean alone instead of the
// whole distribution.
type gridFigure struct {
	id, title string
	op        *gridOp
	xs        []int
	t1s, t2s  []float64
	patterns  []dram.Pattern
	env       string // axisTemperature or axisVPP when levels is set
	levels    []float64
	meanOnly  bool
}

// gridFigures declares Figs. 3–12 in FigureIDs order.
var gridFigures = []gridFigure{
	{id: "3", title: "Effect of t1 and t2 on simultaneous many-row activation success rate",
		op: activationOp, t1s: timing.SweepT1SiMRA, t2s: timing.SweepT2},
	{id: "4a", title: "Many-row activation success rate vs temperature",
		op: activationOp, env: axisTemperature, levels: timing.SweepTemperature, meanOnly: true},
	{id: "4b", title: "Many-row activation success rate vs VPP",
		op: activationOp, env: axisVPP, levels: timing.SweepVPP, meanOnly: true},
	{id: "6", title: "Effect of t1, t2 and replication on MAJ3 success rate",
		op: majOp, t1s: timing.SweepT1SiMRA, t2s: timing.SweepT2},
	{id: "7", title: "MAJX success rates with different data patterns",
		op: majOp, xs: MAJWidths, patterns: dram.MAJPatterns},
	{id: "8", title: "MAJX success rate vs temperature",
		op: majOp, xs: MAJWidths, env: axisTemperature, levels: timing.SweepTemperature},
	{id: "9", title: "MAJX success rate vs VPP",
		op: majOp, xs: MAJWidths, env: axisVPP, levels: timing.SweepVPP},
	{id: "10", title: "Effect of t1 and t2 on Multi-RowCopy success rate",
		op: copyOp, t1s: timing.SweepT1Copy, t2s: timing.SweepT2},
	{id: "11", title: "Data-pattern dependence of Multi-RowCopy",
		op: copyOp, patterns: dram.CopyPatterns, meanOnly: true},
	{id: "12a", title: "Multi-RowCopy success rate vs temperature",
		op: copyOp, env: axisTemperature, levels: timing.SweepTemperature, meanOnly: true},
	{id: "12b", title: "Multi-RowCopy success rate vs VPP",
		op: copyOp, env: axisVPP, levels: timing.SweepVPP, meanOnly: true},
}

// gridFigureFor returns the declaration of a grid figure id, or nil.
func gridFigureFor(id string) *gridFigure {
	for i := range gridFigures {
		if gridFigures[i].id == id {
			return &gridFigures[i]
		}
	}
	return nil
}

// GridCell is one cell of a grid figure. N counts every activated row,
// the copy source included. X, T1, T2 and Pattern hold what the cell ran
// at, swept or not; Level is the swept temperature (°C) or VPP (V).
type GridCell struct {
	X       int
	T1, T2  float64
	Pattern dram.Pattern
	Level   float64
	N       int
	Summary stats.Summary
}

// Grid is the result of one grid figure: its cells in enumeration order.
type Grid struct {
	fig   *gridFigure
	Cells []GridCell
}

// axis returns a swept axis, or the one fixed value of an unswept one.
func axis[T any](swept []T, fixed T) []T {
	if swept != nil {
		return swept
	}
	return []T{fixed}
}

// runGrid runs every cell of a grid figure as one engine run. Cells
// nest x → t1 → t2 → pattern → level → rows, the order the tables print.
func (r *Runner) runGrid(f *gridFigure) (Grid, error) {
	op := f.op
	xs, t1s, t2s := axis(f.xs, op.x), axis(f.t1s, op.best.T1), axis(f.t2s, op.best.T2)
	patterns, levels := axis(f.patterns, dram.PatternRandom), axis(f.levels, 0)
	g := Grid{fig: f, Cells: make([]GridCell, 0,
		len(xs)*len(t1s)*len(t2s)*len(patterns)*len(levels)*len(op.rows(op.x)))}
	for _, x := range xs {
		rows := op.rows(x)
		for _, t1 := range t1s {
			for _, t2 := range t2s {
				for _, p := range patterns {
					for _, level := range levels {
						for _, n := range rows {
							g.Cells = append(g.Cells, GridCell{
								X: x, T1: t1, T2: t2, Pattern: p, Level: level, N: n + op.source,
							})
						}
					}
				}
			}
		}
	}
	cells := make([]sweepCell, len(g.Cells))
	for i, c := range g.Cells {
		env := analog.NominalEnv()
		switch f.env {
		case axisTemperature:
			env.TempC = c.Level
		case axisVPP:
			env.VPP = c.Level
		}
		cells[i] = sweepCell{sc: core.SweepConfig{
			Op: op.kind, X: c.X, N: c.N,
			Timings: timing.APATimings{T1: c.T1, T2: c.T2},
			Pattern: c.Pattern,
		}, env: env}
	}
	rates, err := r.pooledSweeps(cells)
	if err != nil {
		return Grid{fig: f}, err
	}
	for i := range g.Cells {
		g.Cells[i].Summary = stats.MustSummarize(rates[i])
	}
	return g, nil
}

// gridResult runs the grid figure id as its named result type.
func gridResult[R ~struct{ Grid }](r *Runner, id string) (R, error) {
	g, err := r.runGrid(gridFigureFor(id))
	return R{g}, err
}

// at returns the summary of the cell whose swept coordinates and N
// match k's.
func (g Grid) at(k GridCell) (stats.Summary, bool) {
	f := g.fig
	for _, c := range g.Cells {
		if c.N == k.N && (f.xs == nil || c.X == k.X) &&
			(f.t1s == nil || c.T1 == k.T1) && (f.t2s == nil || c.T2 == k.T2) &&
			(f.patterns == nil || c.Pattern == k.Pattern) && (f.levels == nil || c.Level == k.Level) {
			return c.Summary, true
		}
	}
	return stats.Summary{}, false
}

// Table renders the grid: one label column per swept axis in nesting
// order, the row count, then the distribution or the mean alone.
func (g Grid) Table() Table {
	f := g.fig
	t := Table{ID: "Fig" + f.id, Title: f.title}
	label := func(swept bool, header string) {
		if swept {
			t.Columns = append(t.Columns, header)
		}
	}
	label(f.xs != nil, "MAJ")
	label(f.t1s != nil, "t1(ns)")
	label(f.t2s != nil, "t2(ns)")
	label(f.patterns != nil, "pattern")
	label(f.levels != nil, f.env)
	t.Columns = append(t.Columns, f.op.rowsCol)
	if f.meanOnly {
		t.Columns = append(t.Columns, "mean")
	} else {
		t.Columns = append(t.Columns, summaryColumns...)
	}
	t.Rows = make([][]string, len(g.Cells))
	for i, c := range g.Cells {
		row := make([]string, 0, len(t.Columns))
		if f.xs != nil {
			row = append(row, fmt.Sprint(c.X))
		}
		if f.t1s != nil {
			row = append(row, fmt.Sprintf("%.1f", c.T1))
		}
		if f.t2s != nil {
			row = append(row, fmt.Sprintf("%.1f", c.T2))
		}
		if f.patterns != nil {
			row = append(row, c.Pattern.String())
		}
		if f.levels != nil {
			row = append(row, fmt.Sprintf("%g", c.Level))
		}
		row = append(row, fmt.Sprint(c.N-f.op.source))
		s := c.Summary
		if f.meanOnly {
			row = append(row, pct(s.Mean))
		} else {
			row = append(row, pct(s.Mean), pct(s.Min), pct(s.Q1), pct(s.Median), pct(s.Q3), pct(s.Max))
		}
		t.Rows[i] = row
	}
	return t
}

// Figure3Result is the Fig. 3 timing sweep of simultaneous many-row
// activation.
type Figure3Result struct{ Grid }

// Cell returns the summary for a (t1, t2, n) combination.
func (f Figure3Result) Cell(t1, t2 float64, n int) (stats.Summary, bool) {
	return f.at(GridCell{T1: t1, T2: t2, N: n})
}

// Figure3 characterizes the effect of t1 and t2 on the success rate of
// simultaneous many-row activation (§4, Obs. 1–2).
func (r *Runner) Figure3() (Figure3Result, error) { return gridResult[Figure3Result](r, "3") }

// Figure4Result holds one environmental sweep of simultaneous many-row
// activation (Fig. 4a: temperature; Fig. 4b: VPP).
type Figure4Result struct{ Grid }

// Mean returns the average success rate at (level, n).
func (f Figure4Result) Mean(level float64, n int) (float64, bool) {
	s, ok := f.at(GridCell{Level: level, N: n})
	return s.Mean, ok
}

// Figure4a sweeps temperature at the best activation timings (Obs. 3).
func (r *Runner) Figure4a() (Figure4Result, error) { return gridResult[Figure4Result](r, "4a") }

// Figure4b sweeps wordline voltage at the best activation timings
// (Obs. 4). The paper restricts voltage experiments to two modules
// (footnote 9); the runner uses whatever fleet it was configured with.
func (r *Runner) Figure4b() (Figure4Result, error) { return gridResult[Figure4Result](r, "4b") }

// Figure6Result is the Fig. 6 MAJ3 timing sweep.
type Figure6Result struct{ Grid }

// Cell returns the summary for a (t1, t2, n) combination.
func (f Figure6Result) Cell(t1, t2 float64, n int) (stats.Summary, bool) {
	return f.at(GridCell{T1: t1, T2: t2, N: n})
}

// Figure6 characterizes the effect of timing delays and replication on
// MAJ3 (Obs. 6–7).
func (r *Runner) Figure6() (Figure6Result, error) { return gridResult[Figure6Result](r, "6") }

// Figure7Result is the Fig. 7 data-pattern characterization of MAJX.
type Figure7Result struct{ Grid }

// Mean returns the mean success rate for (x, pattern, n).
func (f Figure7Result) Mean(x int, p dram.Pattern, n int) (float64, bool) {
	s, ok := f.at(GridCell{X: x, Pattern: p, N: n})
	return s.Mean, ok
}

// Figure7 characterizes MAJ3/5/7/9 under the five data patterns
// (Obs. 8–10). MAJ widths beyond a manufacturer's limit are pooled from
// the manufacturers that support them, as the paper does (footnote 11).
func (r *Runner) Figure7() (Figure7Result, error) { return gridResult[Figure7Result](r, "7") }

// FigureMAJEnvResult holds Fig. 8 (temperature) or Fig. 9 (VPP).
type FigureMAJEnvResult struct{ Grid }

// Mean returns the mean success rate for (x, level, n).
func (f FigureMAJEnvResult) Mean(x int, level float64, n int) (float64, bool) {
	s, ok := f.at(GridCell{X: x, Level: level, N: n})
	return s.Mean, ok
}

// Figure8 characterizes MAJX across temperature (Obs. 11–12).
func (r *Runner) Figure8() (FigureMAJEnvResult, error) { return gridResult[FigureMAJEnvResult](r, "8") }

// Figure9 characterizes MAJX across wordline voltage (Obs. 13).
func (r *Runner) Figure9() (FigureMAJEnvResult, error) { return gridResult[FigureMAJEnvResult](r, "9") }

// Figure10Result is the Fig. 10 Multi-RowCopy timing sweep.
type Figure10Result struct{ Grid }

// Cell returns the summary at (t1, t2, dests).
func (f Figure10Result) Cell(t1, t2 float64, dests int) (stats.Summary, bool) {
	return f.at(GridCell{T1: t1, T2: t2, N: dests + 1})
}

// Figure10 characterizes the effect of timing delays on Multi-RowCopy
// (Obs. 14–15).
func (r *Runner) Figure10() (Figure10Result, error) { return gridResult[Figure10Result](r, "10") }

// Figure11Result is the Fig. 11 data-pattern dependence of Multi-RowCopy.
type Figure11Result struct{ Grid }

// Mean returns the mean success rate at (pattern, dests).
func (f Figure11Result) Mean(p dram.Pattern, dests int) (float64, bool) {
	s, ok := f.at(GridCell{Pattern: p, N: dests + 1})
	return s.Mean, ok
}

// Figure11 characterizes Multi-RowCopy under all-0s, all-1s and random
// data (Obs. 16).
func (r *Runner) Figure11() (Figure11Result, error) { return gridResult[Figure11Result](r, "11") }

// Figure12Result is one environmental sweep of Multi-RowCopy (Fig. 12a:
// temperature, Fig. 12b: VPP).
type Figure12Result struct{ Grid }

// Mean returns the mean success rate at (level, dests).
func (f Figure12Result) Mean(level float64, dests int) (float64, bool) {
	s, ok := f.at(GridCell{Level: level, N: dests + 1})
	return s.Mean, ok
}

// Figure12a characterizes Multi-RowCopy across temperature (Obs. 17).
func (r *Runner) Figure12a() (Figure12Result, error) { return gridResult[Figure12Result](r, "12a") }

// Figure12b characterizes Multi-RowCopy across wordline voltage (Obs. 18).
func (r *Runner) Figure12b() (Figure12Result, error) { return gridResult[Figure12Result](r, "12b") }
