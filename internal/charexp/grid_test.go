package charexp

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// gridLookup runs one grid figure and returns its cells with the
// figure's own lookup, called at a cell's coordinates.
type gridLookup func(r *Runner) (Grid, func(c GridCell) (stats.Summary, bool), error)

// meanOnly adapts a Mean lookup to a summary holding the mean alone.
func meanOnly(m float64, ok bool) (stats.Summary, bool) { return stats.Summary{Mean: m}, ok }

var gridLookups = []struct {
	id     string
	lookup gridLookup
	// full is set when the lookup returns the whole summary, not the mean.
	full bool
}{
	{"3", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure3()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return f.Cell(c.T1, c.T2, c.N) }, err
	}, true},
	{"4a", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure4a()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.Level, c.N)) }, err
	}, false},
	{"4b", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure4b()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.Level, c.N)) }, err
	}, false},
	{"6", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure6()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return f.Cell(c.T1, c.T2, c.N) }, err
	}, true},
	{"7", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure7()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.X, c.Pattern, c.N)) }, err
	}, false},
	{"8", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure8()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.X, c.Level, c.N)) }, err
	}, false},
	{"9", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure9()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.X, c.Level, c.N)) }, err
	}, false},
	// The copy lookups take destinations: one row fewer than N.
	{"10", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure10()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return f.Cell(c.T1, c.T2, c.N-1) }, err
	}, true},
	{"11", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure11()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.Pattern, c.N-1)) }, err
	}, false},
	{"12a", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure12a()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.Level, c.N-1)) }, err
	}, false},
	{"12b", func(r *Runner) (Grid, func(GridCell) (stats.Summary, bool), error) {
		f, err := r.Figure12b()
		return f.Grid, func(c GridCell) (stats.Summary, bool) { return meanOnly(f.Mean(c.Level, c.N-1)) }, err
	}, false},
}

// TestGridLookups checks that the declarations, the goldens' id list and
// this lookup table name the same figures, then checks every grid
// figure's Cell or Mean lookup against the figure's own cells: each
// cell's coordinates find exactly that cell's summary (its mean, for a
// Mean lookup), and a row count outside the grid finds nothing.
func TestGridLookups(t *testing.T) {
	var ids, declared []string
	for _, g := range gridLookups {
		ids = append(ids, g.id)
	}
	for _, f := range gridFigures {
		declared = append(declared, f.id)
	}
	if !slices.Equal(ids, gridFigureIDs) || !slices.Equal(declared, gridFigureIDs) {
		t.Fatalf("lookup table covers %v and declarations %v, want %v", ids, declared, gridFigureIDs)
	}
	r := smallRunner(t)
	for _, g := range gridLookups {
		t.Run("fig"+g.id, func(t *testing.T) {
			grid, lookup, err := g.lookup(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(grid.Cells) == 0 {
				t.Fatal("no cells")
			}
			for _, c := range grid.Cells {
				want := c.Summary
				if !g.full {
					want = stats.Summary{Mean: want.Mean}
				}
				if got, ok := lookup(c); !ok || got != want {
					t.Errorf("cell %+v: lookup = %+v, %v; want %+v", c, got, ok, want)
				}
			}
			outside := grid.Cells[0]
			outside.N += 1000
			if s, ok := lookup(outside); ok {
				t.Errorf("cell %+v outside the grid found %+v", outside, s)
			}
		})
	}
}
