package scenario

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
)

// fnum renders an axis value the way the tables print it.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// columns returns the oracle's point column headers including the gated extras.
func (ex axisExtras) columns() []string {
	cols := append([]string{}, pointColumns...)
	if ex.disturb {
		cols = append(cols, "disturb")
	}
	if ex.retention {
		cols = append(cols, "retention")
	}
	if ex.mit {
		cols = append(cols, "mitigation")
	}
	return cols
}

// pointCells renders a point's axis columns for the oracle; the skipped axis (envelope
// mode's bisected one) prints "*".
func pointCells(op core.OpKind, p Point, skip string, ex axisExtras) []string {
	cell := func(axis string, v string) string {
		if axis == skip {
			return "*"
		}
		return v
	}
	x := "-"
	if op == core.OpMAJ {
		x = fmt.Sprint(p.X)
	}
	out := []string{
		fmt.Sprint(p.N), x, p.Pattern.String(),
		cell("t1", fnum(p.T1)), cell("t2", fnum(p.T2)),
		cell("temp", fnum(p.TempC)), cell("vpp", fnum(p.VPP)), cell("aging", fnum(p.Aging)),
	}
	if ex.disturb {
		out = append(out, cell("disturb", fnum(p.Disturb)))
	}
	if ex.retention {
		out = append(out, cell("retention", fnum(p.Retention)))
	}
	if ex.mit {
		out = append(out, p.Mit.String())
	}
	return out
}

var pointColumns = []string{"n", "x", "pattern", "t1(ns)", "t2(ns)", "temp(C)", "vpp(V)", "aging(y)"}

// oracleTable is the hand-written string builder the report was once
// printed from, kept as the differential oracle for the typed row model
// and its cell formatter.
func oracleTable(r *Result) charexp.Table {
	ex := r.extras()
	if r.Axis != "" {
		t := charexp.Table{
			ID: "Envelope",
			Title: fmt.Sprintf("%v adaptive envelope: %s boundary at target %s",
				r.Op, r.Axis, pct(r.Target)),
			Columns: append(append([]string{"module", "mfr"}, ex.columns()...),
				"lo", "hi", "rate@lo", "rate@hi", "boundary", "status"),
		}
		for _, c := range r.Cells {
			row := append([]string{c.Module, c.Mfr}, pointCells(r.Op, c.Base, r.Axis, ex)...)
			row = append(row,
				fnum(c.Lo), fnum(c.Hi), pct(c.RateLo), pct(c.RateHi),
				fmt.Sprintf("%.3f", c.Boundary), c.Status)
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	t := charexp.Table{
		ID:    "Scan",
		Title: fmt.Sprintf("%v operating-envelope scan", r.Op),
		Columns: append(ex.columns(),
			"groups", "mean", "min", "q1", "median", "q3", "max"),
	}
	for _, pr := range r.Points {
		row := pointCells(r.Op, pr.Point, "", ex)
		row = append(row, fmt.Sprint(pr.Pooled.N),
			pct(pr.Pooled.Mean), pct(pr.Pooled.Min), pct(pr.Pooled.Q1),
			pct(pr.Pooled.Median), pct(pr.Pooled.Q3), pct(pr.Pooled.Max))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// oracleWrite is the text and csv half of the old report writer over
// oracleTable: the table, plus — text only — the summary line.
func oracleWrite(r *Result, format string) string {
	table := oracleTable(r)
	if format == "csv" {
		return table.CSV()
	}
	if r.Axis != "" {
		counts := map[string]int{}
		for _, c := range r.Cells {
			counts[c.Status]++
		}
		return table.Render() + fmt.Sprintf("\n%d envelope cells: %d min-viable, %d max-viable, %d pass, %d fail\n",
			len(r.Cells), counts[StatusMinViable], counts[StatusMaxViable],
			counts[StatusPass], counts[StatusFail])
	}
	return table.Render() + fmt.Sprintf("\n%d scenario points across %d module cells\n",
		len(r.Points), r.applicable)
}

// writeReport renders r in format through WriteReport.
func writeReport(t *testing.T, r *Result, format string) string {
	t.Helper()
	var b strings.Builder
	if err := WriteReport(&b, r, format); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReportMatchesOracle is the differential test of the text and csv
// paths against the old string builder, on results no golden reaches: a
// grid with disturb, retention and mitigation extras under MAJ and
// non-MAJ ops, and an envelope bisecting each axis.
func TestReportMatchesOracle(t *testing.T) {
	pooled := stats.Summary{N: 7, Min: 0.12345, Q1: 0.5, Median: 0.66666, Q3: 0.999949, Max: 1, Mean: 0.7}
	p := Point{N: 32, X: 5, Pattern: dram.PatternRandom, T1: 1.5, T2: 3, TempC: 85.25,
		VPP: 2.35, Aging: 0.5, Disturb: 1e-3, Retention: 4, Mit: Mitigation{Kind: "tmr", Level: 3}}
	q := p
	q.Disturb, q.Retention, q.Mit, q.TempC = 0, 0, Mitigation{}, 1.0/3
	var results []*Result
	for _, op := range []core.OpKind{core.OpMAJ, core.OpManyRowActivation, core.OpMultiRowCopy} {
		results = append(results,
			&Result{Op: op, applicable: 11, Points: []PointResult{{Point: p, Pooled: pooled}, {Point: q}}},
			&Result{Op: op, applicable: 3, Points: []PointResult{{Point: q, Pooled: pooled}}})
	}
	statuses := []string{StatusMinViable, StatusMaxViable, StatusPass, StatusFail}
	for i, axis := range EnvelopeAxes() {
		r := &Result{Op: core.OpKind(i % 3), Axis: axis, Target: 0.95 + float64(i)/1000}
		for j, base := range []Point{p, q} {
			r.Cells = append(r.Cells, EnvelopeCell{Module: fmt.Sprintf("H-M-%d", j), Mfr: "H", Base: base,
				Lo: 0.1 * float64(i), Hi: 12, RateLo: 0.00005, RateHi: 0.99995,
				Boundary: math.Pi * float64(j+1), Status: statuses[(i+j)%len(statuses)]})
		}
		results = append(results, r)
	}
	for i, r := range results {
		for _, format := range []string{"text", "csv"} {
			if got, want := writeReport(t, r, format), oracleWrite(r, format); got != want {
				t.Fatalf("result %d (%v, axis %q), %s: report diverged from the oracle:\n got %s\nwant %s",
					i, r.Op, r.Axis, format, got, want)
			}
		}
	}
}

// runColumnar executes one small scenario config and returns both the
// text-path table and the decoded columnar stream.
func runColumnar(t *testing.T, envelope bool) (*Result, *colenc.Table, []byte) {
	t.Helper()
	cfg := smallConfig()
	cfg.Grid = smallGrid()
	if envelope {
		cfg.Grid = Grid{Temp: []float64{50}}
		cfg.Envelope = &Envelope{Axis: "t2", Target: 0.9}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteReport(&b, res, "columnar"); err != nil {
		t.Fatal(err)
	}
	enc := []byte(b.String())
	dec, err := colenc.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return res, dec, enc
}

// TestColumnarMetamorphic pins the text ≡ columnar contract for both
// scenario modes: the decoded columnar stream, printed through
// TypedReport, reproduces the text and csv reports byte for byte, and
// those match the oracle builder.
func TestColumnarMetamorphic(t *testing.T) {
	for _, envelope := range []bool{false, true} {
		res, dec, enc := runColumnar(t, envelope)
		for _, format := range []string{"text", "csv"} {
			var b strings.Builder
			if err := charexp.Write(&b, TypedReport(dec), format); err != nil {
				t.Fatal(err)
			}
			want := writeReport(t, res, format)
			if b.String() != want {
				t.Fatalf("envelope=%v: %s printed from the decoded stream diverged from the %s report",
					envelope, format, format)
			}
			if want != oracleWrite(res, format) {
				t.Fatalf("envelope=%v: %s report diverged from the oracle", envelope, format)
			}
		}
		// The stream is deterministic: re-encoding the same result gives
		// the same bytes.
		if writeReport(t, res, "columnar") != string(enc) {
			t.Fatalf("envelope=%v: columnar encoding is not deterministic", envelope)
		}
	}
}

// TestColumnarMeta pins the stream metadata: identity plus the counts the
// text footer prints.
func TestColumnarMeta(t *testing.T) {
	res, dec, _ := runColumnar(t, false)
	if dec.MetaValue("id") != "Scan" || dec.MetaValue("points") == "" ||
		dec.MetaValue("applicable") == "" {
		t.Fatalf("grid meta incomplete: %v", dec.Meta)
	}
	if dec.NumRows() != len(res.Points) {
		t.Fatalf("got %d rows; want %d points", dec.NumRows(), len(res.Points))
	}
	// Raw rates live in [0, 1]; the text path formats them as percents.
	mean := dec.Col("mean")
	for i := 0; i < dec.NumRows(); i++ {
		if v := mean.Float64s[i]; v < 0 || v > 1 {
			t.Fatalf("row %d: mean %v outside [0, 1]; columnar must carry raw rates", i, v)
		}
	}
	_, envDec, _ := runColumnar(t, true)
	if envDec.MetaValue("id") != "Envelope" || envDec.MetaValue("axis") != "t2" ||
		envDec.MetaValue("cells") == "" {
		t.Fatalf("envelope meta incomplete: %v", envDec.Meta)
	}
	// The bisected axis column is all-null ("*" in text).
	axis := envDec.Col("t2(ns)")
	if axis == nil || !axis.Field.Nullable {
		t.Fatal("bisected axis column must be nullable")
	}
	for i := 0; i < envDec.NumRows(); i++ {
		if axis.Valid[i] {
			t.Fatal("bisected axis column must be all-null")
		}
	}
}
