package workload

import (
	"fmt"
	"strconv"

	"repro/internal/charexp"
	"repro/internal/colenc"
)

// Columnar builds the fleet report's row model: one row per (module,
// workload) cell in the fleet × workload merge order, with raw values
// (success rate in [0, 1], time in µs, energy in µJ). Non-viable
// (guarded) rows carry nulls in every numeric column and "guarded" in
// the match column. The meta carries the table identity and the counts
// the text footer prints.
func Columnar(results []Result) *colenc.Table {
	mk := func(name string, typ colenc.Type, nullable bool) colenc.Column {
		return colenc.Column{Field: colenc.Field{Name: name, Type: typ, Nullable: nullable}}
	}
	cols := []colenc.Column{
		mk("workload", colenc.TypeString, false),
		mk("module", colenc.TypeString, false),
		mk("mfr", colenc.TypeString, false),
		mk("die", colenc.TypeString, false),
		mk("majx", colenc.TypeInt64, true),
		mk("lanes", colenc.TypeInt64, true),
		mk("elems", colenc.TypeInt64, true),
		mk("success", colenc.TypeFloat64, true),
		mk("match", colenc.TypeString, false),
		mk("digest", colenc.TypeString, true),
		mk("maj-ops", colenc.TypeInt64, true),
		mk("copies", colenc.TypeInt64, true),
		mk("time-us", colenc.TypeFloat64, true),
		mk("energy-uj", colenc.TypeFloat64, true),
		mk("tput-mbps", colenc.TypeFloat64, true),
	}
	viable, matched := 0, 0
	for _, r := range results {
		cols[0].Strings = append(cols[0].Strings, r.Workload)
		cols[1].Strings = append(cols[1].Strings, r.Module)
		cols[2].Strings = append(cols[2].Strings, r.Profile)
		cols[3].Strings = append(cols[3].Strings, r.DieRev)
		v := r.Viable
		majOps := 0
		for _, n := range r.Counts.MAJ {
			majOps += n
		}
		match := "guarded"
		if v {
			viable++
			match = "ok"
			if r.RefMatch() {
				matched++
			} else {
				match = "DIVERGED"
			}
		}
		cols[4].Int64s = append(cols[4].Int64s, int64(r.MaxX))
		cols[5].Int64s = append(cols[5].Int64s, int64(r.Lanes))
		cols[6].Int64s = append(cols[6].Int64s, int64(r.Elements))
		cols[7].Float64s = append(cols[7].Float64s, r.SuccessRate())
		cols[8].Strings = append(cols[8].Strings, match)
		cols[9].Strings = append(cols[9].Strings, fmt.Sprintf("%016x", r.Digest))
		cols[10].Int64s = append(cols[10].Int64s, int64(majOps))
		cols[11].Int64s = append(cols[11].Int64s, int64(r.Counts.NOT+r.Counts.Stage))
		cols[12].Float64s = append(cols[12].Float64s, r.TimeNS/1e3)
		cols[13].Float64s = append(cols[13].Float64s, r.EnergyNJ/1e3)
		cols[14].Float64s = append(cols[14].Float64s, r.ThroughputMbps)
		for i := range cols {
			if cols[i].Field.Nullable {
				cols[i].Valid = append(cols[i].Valid, v)
			}
		}
	}
	return &colenc.Table{
		Name: "workloads",
		Meta: [][2]string{
			{"id", "workloads"},
			{"title", "end-to-end in-DRAM workloads (bit-serial MAJX execution, reliable lanes)"},
			{"results", strconv.Itoa(len(results))},
			{"viable", strconv.Itoa(viable)},
			{"matched", strconv.Itoa(matched)},
		},
		Cols: cols,
	}
}

// TypedReport pairs a workload table, built by Columnar or decoded from
// a columnar stream, with the report's format verbs ("%.2f%%" success,
// "%.2f" µs and Mbps, "%.3f" µJ, "-" for nulls) and its summary footer.
func TypedReport(t *colenc.Table) charexp.TypedReport {
	return charexp.TypedReport{Table: t, Cell: cell, Footer: footer}
}

func cell(c *colenc.Column, row int) string {
	if c.Null(row) {
		return colenc.NullCell
	}
	switch c.Field.Name {
	case "success":
		return fmt.Sprintf("%.2f%%", c.Float64s[row]*100)
	case "time-us", "tput-mbps":
		return fmt.Sprintf("%.2f", c.Float64s[row])
	case "energy-uj":
		return fmt.Sprintf("%.3f", c.Float64s[row])
	}
	return c.CellString(row)
}

func footer(t *colenc.Table) string {
	return fmt.Sprintf("%s results (%s viable, %s bit-exact vs software reference)",
		t.MetaValue("results"), t.MetaValue("viable"), t.MetaValue("matched"))
}
