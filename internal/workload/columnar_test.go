package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitserial"
	"repro/internal/charexp"
	"repro/internal/colenc"
)

// oracleReport is the hand-written string builder the report was once
// printed from, kept as the differential oracle for the typed row model
// and its cell formatter.
func oracleReport(results []Result) charexp.Table {
	t := charexp.Table{
		ID:    "workloads",
		Title: "end-to-end in-DRAM workloads (bit-serial MAJX execution, reliable lanes)",
		Columns: []string{
			"workload", "module", "mfr", "die", "majx", "lanes", "elems",
			"success", "match", "digest", "maj-ops", "copies", "time-us",
			"energy-uj", "tput-mbps",
		},
	}
	for _, r := range results {
		if !r.Viable {
			t.Rows = append(t.Rows, []string{
				r.Workload, r.Module, r.Profile, r.DieRev, "-", "-", "-",
				"-", "guarded", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		majOps := 0
		for _, n := range r.Counts.MAJ {
			majOps += n
		}
		match := "ok"
		if !r.RefMatch() {
			match = "DIVERGED"
		}
		t.Rows = append(t.Rows, []string{
			r.Workload,
			r.Module,
			r.Profile,
			r.DieRev,
			fmt.Sprintf("%d", r.MaxX),
			fmt.Sprintf("%d", r.Lanes),
			fmt.Sprintf("%d", r.Elements),
			fmt.Sprintf("%.2f%%", r.SuccessRate()*100),
			match,
			fmt.Sprintf("%016x", r.Digest),
			fmt.Sprintf("%d", majOps),
			fmt.Sprintf("%d", r.Counts.NOT+r.Counts.Stage),
			fmt.Sprintf("%.2f", r.TimeNS/1e3),
			fmt.Sprintf("%.3f", r.EnergyNJ/1e3),
			fmt.Sprintf("%.2f", r.ThroughputMbps),
		})
	}
	return t
}

// oracleWrite is the text and csv half of the old report writer over
// oracleReport: the table, plus — text only — the summary line.
func oracleWrite(results []Result, format string) string {
	table := oracleReport(results)
	if format == "csv" {
		return table.CSV()
	}
	viable, matched := 0, 0
	for _, r := range results {
		if !r.Viable {
			continue
		}
		viable++
		if r.RefMatch() {
			matched++
		}
	}
	return table.Render() + fmt.Sprintf("\n%d results (%d viable, %d bit-exact vs software reference)\n",
		len(results), viable, matched)
}

// report is the string table the text and csv reports print.
func report(results []Result) charexp.Table {
	return TypedReport(Columnar(results)).Strings()
}

// writeReport renders results in format through WriteReport.
func writeReport(t *testing.T, results []Result, format string) string {
	t.Helper()
	var b strings.Builder
	if err := WriteReport(&b, results, format); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReportMatchesOracle is the differential test of the text and csv
// paths against the old string builder, on rows no golden reaches: a
// guarded row (all-null numerics), a DIVERGED row, and values that round
// at each format verb.
func TestReportMatchesOracle(t *testing.T) {
	results := []Result{
		{Workload: "bitmap-scan", Module: "S-A-0", Profile: "S", DieRev: "A",
			Reason: "APA guarded", MaxX: 9, Lanes: 3, Elements: 4, Digest: 7},
		{Workload: "image-filter", Module: "H-M-0", Profile: "H", DieRev: "M", Viable: true,
			MaxX: 5, Lanes: 511, Elements: 300, Correct: 299, Digest: 0xabc, RefDigest: 0xabd,
			TimeNS: 12345.675, EnergyNJ: 0.0015, ThroughputMbps: 1e-3,
			Counts: bitserial.OpCounts{MAJ: map[int]int{3: 10, 5: 2}, NOT: 4, Stage: 9}},
		{Workload: "popcount-checksum", Module: "M-E-1", Profile: "M", DieRev: "E", Viable: true,
			MaxX: 3, Lanes: 1, Elements: 3, Correct: 2, Digest: 1 << 63, RefDigest: 1 << 63,
			TimeNS: 5e9, EnergyNJ: 123456.78951, ThroughputMbps: 99.995},
	}
	live, err := RunFleet(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range [][]Result{results, live, nil} {
		for _, format := range []string{"text", "csv"} {
			if got, want := writeReport(t, rs, format), oracleWrite(rs, format); got != want {
				t.Fatalf("%d results, %s: report diverged from the oracle:\n got %s\nwant %s",
					len(rs), format, got, want)
			}
		}
	}
}

// TestColumnarMetamorphic pins the text ≡ columnar contract for fleet
// reports: the decoded columnar stream, printed through TypedReport,
// reproduces the text and csv reports byte for byte — including the
// guarded rows' "-" sentinels and the footer read from the meta.
func TestColumnarMetamorphic(t *testing.T) {
	results, err := RunFleet(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := colenc.Decode([]byte(writeReport(t, results, "columnar")))
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv"} {
		var b strings.Builder
		if err := charexp.Write(&b, TypedReport(dec), format); err != nil {
			t.Fatal(err)
		}
		if b.String() != writeReport(t, results, format) {
			t.Fatalf("%s printed from the decoded stream diverged from the %s report", format, format)
		}
	}
	// Digests stay zero-padded strings — integer inference would corrupt
	// them.
	dg := dec.Col("digest")
	if dg == nil || dg.Field.Type != colenc.TypeString {
		t.Fatal("digest column must be a string column")
	}
	// Guarded (non-viable) rows are null across the numeric columns.
	for i, r := range results {
		if r.Viable {
			continue
		}
		if dec.Col("majx").Valid[i] || dec.Col("success").Valid[i] {
			t.Fatalf("row %d: guarded result must be null in numeric columns", i)
		}
	}
}
