package campaign

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/colenc"
)

// oracleTable is the hand-written string builder the report was once
// printed from, kept as the differential oracle for the typed row model
// and its cell formatter: one row per ranked candidate, one column per
// die group carrying the mix's count.
func oracleTable(r *Result) charexp.Table {
	t := charexp.Table{
		ID: "campaign",
		Title: fmt.Sprintf("fleet-design campaign: reliable throughput per watt (workload %s, fleet size %d)",
			r.Workload, r.FleetSize),
	}
	t.Columns = []string{"rank"}
	for _, g := range r.Groups {
		t.Columns = append(t.Columns, g.Label)
	}
	t.Columns = append(t.Columns, "modules", "viable", "tput-mbps", "power-w", "score")
	for _, c := range r.Candidates {
		row := []string{strconv.Itoa(c.Rank)}
		for _, n := range c.Counts {
			row = append(row, strconv.Itoa(n))
		}
		row = append(row,
			strconv.Itoa(len(c.Modules)),
			strconv.Itoa(c.Viable),
			fmt.Sprintf("%.2f", c.ThroughputMbps),
			fmt.Sprintf("%.4f", c.PowerW),
			fmt.Sprintf("%.2f", c.Score),
		)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// oracleWrite is the text and csv half of the old report writer over
// oracleTable: the table, plus — text only — the search summary line.
func oracleWrite(r *Result, format string) string {
	if format == "csv" {
		return oracleTable(r).CSV()
	}
	return oracleTable(r).Render() + fmt.Sprintf(
		"\ntop %d of %d candidate mixes (workload %s, fleet size %d over %d module groups)\n",
		len(r.Candidates), r.Total, r.Workload, r.FleetSize, len(r.Groups))
}

// TestReportMatchesOracle is the differential test of the text and csv
// paths, and of text printed from the decoded columnar stream, against
// the old string builder: a synthetic result with three groups and
// values that round at each format verb, a live search and an empty one.
func TestReportMatchesOracle(t *testing.T) {
	synthetic := &Result{Workload: "image-filter", FleetSize: 5, Total: 21,
		Groups: []Group{{Label: "H/M/512"}, {Label: "M/E/1024"}, {Label: "S/A/512"}},
		Candidates: []Candidate{
			{Rank: 1, Counts: []int{2, 3, 0}, Modules: []string{"a", "b", "c", "d", "e"},
				Eval: Eval{ThroughputMbps: 1234.565, PowerW: 0.123456, Score: 9999.995, Viable: 5}},
			{Rank: 2, Counts: []int{0, 0, 5}, Modules: []string{"f", "g", "h", "i", "j"},
				Eval: Eval{ThroughputMbps: 0, PowerW: 1.00005, Score: 0}},
		}}
	live, err := Run(context.Background(), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{synthetic, live, {}} {
		var enc strings.Builder
		if err := WriteReport(&enc, r, "columnar"); err != nil {
			t.Fatal(err)
		}
		dec, err := colenc.Decode([]byte(enc.String()))
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"text", "csv"} {
			var got, decoded strings.Builder
			if err := WriteReport(&got, r, format); err != nil {
				t.Fatal(err)
			}
			if err := charexp.Write(&decoded, TypedReport(dec), format); err != nil {
				t.Fatal(err)
			}
			want := oracleWrite(r, format)
			if got.String() != want || decoded.String() != want {
				t.Fatalf("%d groups, %s: report diverged from the oracle:\n got %s\ndecoded %s\nwant %s",
					len(r.Groups), format, got.String(), decoded.String(), want)
			}
		}
	}
}
