package scenario

import (
	"fmt"
	"strconv"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/core"
)

// Columnar metadata keys: the table identity plus the counts the text
// footer prints, so a columnar payload carries everything the text
// report does.
const (
	metaID     = "id"
	metaTitle  = "title"
	metaOp     = "op"
	metaAxis   = "axis"
	metaTarget = "target"
)

// axisColumn maps an envelope axis name onto its table column.
var axisColumn = map[string]string{
	"t1": "t1(ns)", "t2": "t2(ns)", "temp": "temp(C)", "vpp": "vpp(V)", "aging": "aging(y)",
	"disturb": "disturb", "retention": "retention",
}

// Columnar builds the scenario result's row model: one row per grid
// point or envelope cell, in the deterministic merge order, with raw
// values (success rates in [0, 1], unformatted axis floats). Nulls encode
// the text tables' sentinels: the x column on non-MAJ ops ("-") and, in
// envelope mode, the bisected axis column ("*"). The meta carries the
// table identity and the counts the text footer prints.
func (r *Result) Columnar() *colenc.Table {
	id, title := "Scan", fmt.Sprintf("%v operating-envelope scan", r.Op)
	if r.Axis != "" {
		id = "Envelope"
		title = fmt.Sprintf("%v adaptive envelope: %s boundary at target %s", r.Op, r.Axis, pct(r.Target))
	}
	t := &colenc.Table{
		Name: id,
		Meta: [][2]string{{metaID, id}, {metaTitle, title}, {metaOp, r.Op.String()}},
	}
	if r.Axis != "" {
		t.Meta = append(t.Meta,
			[2]string{metaAxis, r.Axis},
			[2]string{metaTarget, strconv.FormatFloat(r.Target, 'g', -1, 64)})
		counts := map[string]int{}
		for _, c := range r.Cells {
			counts[c.Status]++
		}
		t.Meta = append(t.Meta,
			[2]string{"cells", strconv.Itoa(len(r.Cells))},
			[2]string{"min_viable", strconv.Itoa(counts[StatusMinViable])},
			[2]string{"max_viable", strconv.Itoa(counts[StatusMaxViable])},
			[2]string{"pass", strconv.Itoa(counts[StatusPass])},
			[2]string{"fail", strconv.Itoa(counts[StatusFail])})
	} else {
		t.Meta = append(t.Meta,
			[2]string{"points", strconv.Itoa(len(r.Points))},
			[2]string{"applicable", strconv.Itoa(r.applicable)})
	}

	ex := r.extras()
	if r.Axis != "" {
		module := str("module")
		mfr := str("mfr")
		cols := newPointCols(r.Op, r.Axis, ex)
		lo, hi := f64("lo"), f64("hi")
		rateLo, rateHi := f64("rate@lo"), f64("rate@hi")
		boundary := f64("boundary")
		status := str("status")
		for _, c := range r.Cells {
			module.Strings = append(module.Strings, c.Module)
			mfr.Strings = append(mfr.Strings, c.Mfr)
			cols.push(c.Base)
			lo.Float64s = append(lo.Float64s, c.Lo)
			hi.Float64s = append(hi.Float64s, c.Hi)
			rateLo.Float64s = append(rateLo.Float64s, c.RateLo)
			rateHi.Float64s = append(rateHi.Float64s, c.RateHi)
			boundary.Float64s = append(boundary.Float64s, c.Boundary)
			status.Strings = append(status.Strings, c.Status)
		}
		t.Cols = append([]colenc.Column{module, mfr}, cols.cols...)
		t.Cols = append(t.Cols, lo, hi, rateLo, rateHi, boundary, status)
		return t
	}

	cols := newPointCols(r.Op, "", ex)
	groups := i64("groups")
	summary := []colenc.Column{
		f64("mean"), f64("min"), f64("q1"),
		f64("median"), f64("q3"), f64("max"),
	}
	for _, pr := range r.Points {
		cols.push(pr.Point)
		groups.Int64s = append(groups.Int64s, int64(pr.Pooled.N))
		for i, v := range []float64{pr.Pooled.Mean, pr.Pooled.Min, pr.Pooled.Q1,
			pr.Pooled.Median, pr.Pooled.Q3, pr.Pooled.Max} {
			summary[i].Float64s = append(summary[i].Float64s, v)
		}
	}
	t.Cols = append(cols.cols, groups)
	t.Cols = append(t.Cols, summary...)
	return t
}

func i64(name string) colenc.Column {
	return colenc.Column{Field: colenc.Field{Name: name, Type: colenc.TypeInt64}}
}
func f64(name string) colenc.Column {
	return colenc.Column{Field: colenc.Field{Name: name, Type: colenc.TypeFloat64}}
}
func str(name string) colenc.Column {
	return colenc.Column{Field: colenc.Field{Name: name, Type: colenc.TypeString}}
}

// pointCols accumulates the shared axis columns of a point row: the eight
// fixed ones plus any gated extras (disturb, retention, mitigation),
// matching the text table's headers. The nullable columns — x on non-MAJ
// ops, and the skipped (bisected envelope) axis — are null in every row.
type pointCols struct {
	cols []colenc.Column // n, x, pattern, t1, t2, temp, vpp, aging, extras...
	ex   axisExtras
}

func newPointCols(op core.OpKind, skip string, ex axisExtras) *pointCols {
	p := &pointCols{ex: ex}
	p.cols = []colenc.Column{
		i64("n"), i64("x"), str("pattern"),
		f64("t1(ns)"), f64("t2(ns)"),
		f64("temp(C)"), f64("vpp(V)"), f64("aging(y)"),
	}
	p.cols[1].Field.Nullable = op != core.OpMAJ
	if ex.disturb {
		p.cols = append(p.cols, f64("disturb"))
	}
	if ex.retention {
		p.cols = append(p.cols, f64("retention"))
	}
	if ex.mit {
		p.cols = append(p.cols, str("mitigation"))
	}
	for i := range p.cols {
		if p.cols[i].Field.Name == axisColumn[skip] {
			p.cols[i].Field.Nullable = true
		}
	}
	return p
}

// push appends one point's axis cells.
func (p *pointCols) push(pt Point) {
	c := p.cols
	c[0].Int64s = append(c[0].Int64s, int64(pt.N))
	c[1].Int64s = append(c[1].Int64s, int64(pt.X))
	c[2].Strings = append(c[2].Strings, pt.Pattern.String())
	vals := []float64{pt.T1, pt.T2, pt.TempC, pt.VPP, pt.Aging}
	if p.ex.disturb {
		vals = append(vals, pt.Disturb)
	}
	if p.ex.retention {
		vals = append(vals, pt.Retention)
	}
	for i, v := range vals {
		c[3+i].Float64s = append(c[3+i].Float64s, v)
	}
	if p.ex.mit {
		c[len(c)-1].Strings = append(c[len(c)-1].Strings, pt.Mit.String())
	}
	for i := range c {
		if c[i].Field.Nullable {
			c[i].Valid = append(c[i].Valid, false)
		}
	}
}

// TypedReport pairs a scenario table, built by Columnar or decoded from
// a columnar stream, with the report's format verbs (percent rates,
// "%.3f" boundaries, 'g' axis floats, "-" for nulls and "*" for the
// bisected envelope axis) and its summary footer.
func TypedReport(t *colenc.Table) charexp.TypedReport {
	axisCol := axisColumn[t.MetaValue(metaAxis)]
	return charexp.TypedReport{Table: t, Footer: footer, Cell: func(c *colenc.Column, row int) string {
		if c.Null(row) {
			if c.Field.Name == axisCol {
				return "*"
			}
			return colenc.NullCell
		}
		switch c.Field.Name {
		case "mean", "min", "q1", "median", "q3", "max", "rate@lo", "rate@hi":
			return pct(c.Float64s[row])
		case "boundary":
			return fmt.Sprintf("%.3f", c.Float64s[row])
		}
		return c.CellString(row)
	}}
}

// footer is the text summary line: status counts for an envelope, point
// and module-cell counts for a grid.
func footer(t *colenc.Table) string {
	m := t.MetaValue
	if m(metaAxis) != "" {
		return fmt.Sprintf("%s envelope cells: %s min-viable, %s max-viable, %s pass, %s fail",
			m("cells"), m("min_viable"), m("max_viable"), m("pass"), m("fail"))
	}
	return fmt.Sprintf("%s scenario points across %s module cells", m("points"), m("applicable"))
}

// pct formats a rate as a percentage.
func pct(rate float64) string { return fmt.Sprintf("%.2f%%", rate*100) }
