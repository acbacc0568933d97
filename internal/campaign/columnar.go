package campaign

import (
	"fmt"
	"strconv"

	"repro/internal/charexp"
	"repro/internal/colenc"
)

// fixedCols counts the columns around the group columns: rank before
// them; modules, viable, tput-mbps, power-w and score after.
const fixedCols = 6

// Columnar builds the campaign result's row model: one row per ranked
// candidate, in rank order, with raw values (unrounded throughput, power
// and score). Group columns carry the mix counts under the group labels;
// the meta carries the table identity and the search's shape, so a
// columnar payload is as self-describing as the text report.
func (r *Result) Columnar() *colenc.Table {
	t := &colenc.Table{
		Name: "campaign",
		Meta: [][2]string{
			{"id", "campaign"},
			{"title", fmt.Sprintf("fleet-design campaign: reliable throughput per watt (workload %s, fleet size %d)",
				r.Workload, r.FleetSize)},
			{"workload", r.Workload},
			{"fleet_size", strconv.Itoa(r.FleetSize)},
			{"total", strconv.Itoa(r.Total)},
			{"shown", strconv.Itoa(len(r.Candidates))},
		},
	}
	i64 := func(name string) colenc.Column {
		return colenc.Column{Field: colenc.Field{Name: name, Type: colenc.TypeInt64}}
	}
	f64 := func(name string) colenc.Column {
		return colenc.Column{Field: colenc.Field{Name: name, Type: colenc.TypeFloat64}}
	}
	cols := []colenc.Column{i64("rank")}
	for _, g := range r.Groups {
		cols = append(cols, i64(g.Label))
	}
	cols = append(cols, i64("modules"), i64("viable"),
		f64("tput-mbps"), f64("power-w"), f64("score"))
	for _, c := range r.Candidates {
		cols[0].Int64s = append(cols[0].Int64s, int64(c.Rank))
		for gi, n := range c.Counts {
			cols[1+gi].Int64s = append(cols[1+gi].Int64s, int64(n))
		}
		base := 1 + len(r.Groups)
		cols[base].Int64s = append(cols[base].Int64s, int64(len(c.Modules)))
		cols[base+1].Int64s = append(cols[base+1].Int64s, int64(c.Viable))
		cols[base+2].Float64s = append(cols[base+2].Float64s, c.ThroughputMbps)
		cols[base+3].Float64s = append(cols[base+3].Float64s, c.PowerW)
		cols[base+4].Float64s = append(cols[base+4].Float64s, c.Score)
	}
	t.Cols = cols
	return t
}

// TypedReport pairs a campaign table, built by Columnar or decoded from
// a columnar stream, with the report's format verbs ("%.2f" throughput
// and score, "%.4f" power) and its summary footer.
func TypedReport(t *colenc.Table) charexp.TypedReport {
	return charexp.TypedReport{Table: t, Cell: cell, Footer: footer}
}

func cell(c *colenc.Column, row int) string {
	switch c.Field.Name {
	case "tput-mbps", "score":
		return fmt.Sprintf("%.2f", c.Float64s[row])
	case "power-w":
		return fmt.Sprintf("%.4f", c.Float64s[row])
	}
	return c.CellString(row)
}

// footer is the text summary line; the group count is the table's
// column count less the fixed columns.
func footer(t *colenc.Table) string {
	m := t.MetaValue
	return fmt.Sprintf("top %s of %s candidate mixes (workload %s, fleet size %s over %d module groups)",
		m("shown"), m("total"), m("workload"), m("fleet_size"), len(t.Cols)-fixedCols)
}
