package simraclient

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// TestE2EColumnarGoldens is the CI sdk-e2e entry point: it drives a real
// simra-serve process (started by the workflow, address in
// SIMRA_E2E_URL) through the typed SDK and pins every columnar family
// against the committed CLI goldens — the same bytes `simra-char`,
// `simra-work` and `simra-scan` print. When SIMRA_E2E_URL_W8 names a
// second server running with a different -workers count, each stream
// must be byte-identical across the two, proving worker invariance over
// the wire. The test is skipped without the environment, so `go test
// ./...` stays hermetic.
func TestE2EColumnarGoldens(t *testing.T) {
	base := os.Getenv("SIMRA_E2E_URL")
	if base == "" {
		t.Skip("SIMRA_E2E_URL not set; run via the sdk-e2e CI job")
	}
	c := New(base)
	var c8 *Client
	if alt := os.Getenv("SIMRA_E2E_URL_W8"); alt != "" {
		c8 = New(alt)
	}
	ctx := context.Background()

	printed := func(t *testing.T, r charexp.Report, format string) string {
		t.Helper()
		var b strings.Builder
		if err := charexp.Write(&b, r, format); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	golden := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing committed golden: %v", err)
		}
		return b
	}

	// Each family: fetch columnar through the SDK, require byte-equality
	// with the committed golden, worker invariance across servers, and a
	// decode that matches the committed csv/text rows.
	t.Run("sweep", func(t *testing.T) {
		res, err := c.Sweep(ctx, SweepRequest{Figure: "3", Format: "columnar"})
		if err != nil {
			t.Fatal(err)
		}
		want := golden("../../cmd/simra-char/testdata/fig3.colenc.golden")
		if string(res.Columnar) != string(want) {
			t.Fatal("sweep columnar bytes differ from the committed fig3.colenc.golden")
		}
		if c8 != nil {
			alt, err := c8.Sweep(ctx, SweepRequest{Figure: "3", Format: "columnar"})
			if err != nil {
				t.Fatal(err)
			}
			if string(alt.Columnar) != string(res.Columnar) {
				t.Fatal("sweep columnar bytes differ between worker counts")
			}
		}
		csvRes, err := c.Sweep(ctx, SweepRequest{Figure: "3", Format: "csv"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table == nil {
			t.Fatal("sweep columnar result carries no table")
		}
		if got := printed(t, charexp.TypedReport{Table: res.Table, Cell: (*Column).CellString}, "csv"); got != csvRes.Output {
			t.Fatal("decoded sweep rows differ from the csv route")
		}
	})

	t.Run("workload", func(t *testing.T) {
		q := WorkloadRequest{Workloads: "all", Modules: "all", Columns: 256, Format: "columnar"}
		res, err := c.Workload(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := golden("../../cmd/simra-work/testdata/simra-work.colenc.golden")
		if string(res.Columnar) != string(want) {
			t.Fatal("workload columnar bytes differ from the committed simra-work.colenc.golden")
		}
		if c8 != nil {
			alt, err := c8.Workload(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if string(alt.Columnar) != string(res.Columnar) {
				t.Fatal("workload columnar bytes differ between worker counts")
			}
		}
		// The decoded table plus its meta rebuild the exact text-golden
		// bytes the CLI prints.
		text := golden("../../cmd/simra-work/testdata/simra-work.golden")
		if printed(t, workload.TypedReport(res.Table), "text") != string(text) {
			t.Fatal("decoded workload rows differ from the committed text golden")
		}
	})

	t.Run("scenario", func(t *testing.T) {
		q := ScenarioRequest{Grid: "timing", Columns: 128, Groups: 2, Banks: 1, Trials: 2, Format: "columnar"}
		res, err := c.Scenario(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := golden("../../cmd/simra-scan/testdata/grid.colenc.golden")
		if string(res.Columnar) != string(want) {
			t.Fatal("scenario columnar bytes differ from the committed grid.colenc.golden")
		}
		if c8 != nil {
			alt, err := c8.Scenario(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if string(alt.Columnar) != string(res.Columnar) {
				t.Fatal("scenario columnar bytes differ between worker counts")
			}
		}
		if printed(t, scenario.TypedReport(res.Table), "csv") != string(golden("../../cmd/simra-scan/testdata/grid.csv.golden")) {
			t.Fatal("decoded scenario rows differ from the committed csv golden")
		}

		// The job tier serves the same stream: submit as a job, watch it
		// to completion, and require byte-identity with the blocking route.
		jres, err := c.RunJob(ctx, JobRequest{Kind: "scenario", Scenario: &q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(jres.Columnar) != string(res.Columnar) {
			t.Fatal("job-tier columnar result differs from the blocking route")
		}
	})
}
