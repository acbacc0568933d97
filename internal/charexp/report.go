package charexp

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/colenc"
)

// The render formats every tabular report serves. formats is the one
// list of them; CheckFormat is the one check the CLIs, the serving layer
// and Write share.
const (
	FormatText     = "text"
	FormatCSV      = "csv"
	FormatColumnar = "columnar"
)

var formats = []string{FormatText, FormatCSV, FormatColumnar}

// CheckFormat rejects a format outside the render formats. The message
// ends in the "valid: text, csv, columnar" list that the serving layer's
// 422 envelope parses into valid_options.
func CheckFormat(format string) error {
	if slices.Contains(formats, format) {
		return nil
	}
	return fmt.Errorf("unknown format %q; valid: %s", format, strings.Join(formats, ", "))
}

// Report is one tabular result as Write prints it: a sweep Table, which
// stays strings-first so text and csv never re-infer types, or a typed
// family's TypedReport.
type Report interface {
	// cells returns the string rows that text and csv print.
	cells() Table
	// typed returns the columnar row model.
	typed() *colenc.Table
	// footer returns the text-only summary line, or "".
	footer() string
}

// Write renders r in format: the aligned text table, followed by a blank
// line and the summary line when the report has one; the csv rows; or
// the columnar stream. It is the one place that chooses between the
// formats, shared by RunFigure, the CLIs and the workload, scenario and
// campaign report writers.
func Write(w io.Writer, r Report, format string) error {
	if err := CheckFormat(format); err != nil {
		return err
	}
	switch format {
	case FormatColumnar:
		enc, err := colenc.Encode(r.typed(), 0)
		if err != nil {
			return err
		}
		_, err = w.Write(enc)
		return err
	case FormatCSV:
		_, err := io.WriteString(w, r.cells().CSV())
		return err
	}
	if _, err := io.WriteString(w, r.cells().Render()); err != nil {
		return err
	}
	if f := r.footer(); f != "" {
		_, err := fmt.Fprintf(w, "\n%s\n", f)
		return err
	}
	return nil
}

func (t Table) cells() Table { return t }

// typed infers the sweep table's schema with colenc.FromStrings's
// round-trip-safe inference; the id and title travel as stream metadata.
func (t Table) typed() *colenc.Table {
	return colenc.FromStrings(t.ID,
		[][2]string{{"id", t.ID}, {"title", t.Title}}, t.Columns, t.Rows)
}

func (t Table) footer() string { return "" }

// Columnar encodes the table as a columnar stream. Decoding it and
// printing it through colenc.Column.CellString reproduces the csv cells
// byte for byte.
func (t Table) Columnar() (string, error) {
	enc, err := colenc.Encode(t.typed(), 0)
	return string(enc), err
}

// TypedReport is a typed family's report: its columnar row model, built
// from results or decoded from a stream, with the family's cell
// formatter and text footer. Both read only the table and its meta, so a
// decoded stream prints the same bytes as the results it came from.
type TypedReport struct {
	Table *colenc.Table
	// Cell renders one cell as the text and csv tables print it.
	Cell func(c *colenc.Column, row int) string
	// Footer returns the text summary line from the table's meta; nil
	// prints none.
	Footer func(t *colenc.Table) string
}

// Strings renders the rows through Cell, under the id and title the
// table's meta carries.
func (r TypedReport) Strings() Table {
	columns, rows := r.Table.StringsFunc(r.Cell)
	return Table{ID: r.Table.MetaValue("id"), Title: r.Table.MetaValue("title"), Columns: columns, Rows: rows}
}

func (r TypedReport) cells() Table         { return r.Strings() }
func (r TypedReport) typed() *colenc.Table { return r.Table }

func (r TypedReport) footer() string {
	if r.Footer == nil {
		return ""
	}
	return r.Footer(r.Table)
}
