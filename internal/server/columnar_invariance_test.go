package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/core"
	"repro/internal/invariance"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// decodedPath POSTs the columnar route, decodes the stream and prints
// it in format through report — the same charexp.Write and family cell
// formatter the text and csv routes print through.
func decodedPath(route, body, format string, report func(*colenc.Table) charexp.TypedReport) invariance.Path {
	return invariance.Path{Name: "columnar-decoded", Run: func(t *testing.T, v invariance.Variant) string {
		t.Helper()
		_, url := jobPathServer(t, v)
		code, resp := postJSON(t, url+route, body)
		if code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", route, code, resp)
		}
		tab, err := colenc.Decode([]byte(resp))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := charexp.Write(&b, report(tab), format); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}}
}

// checkMetamorphic is the metamorphic half of the text ≡ columnar
// equivalence: whatever bytes the csv and text routes serve — rows, and
// for text the footer read from the meta — the columnar stream of the
// same request decodes and prints back to them.
func checkMetamorphic(t *testing.T, name, route, body string, report func(*colenc.Table) charexp.TypedReport) {
	t.Helper()
	for _, format := range []string{"csv", "text"} {
		invariance.CheckPaths(t, name+"-"+format, true, []invariance.Path{
			blockingPath(route, strings.Replace(body, "columnar", format, 1)),
			decodedPath(route, body, format, report),
		})
	}
}

// sweepReport prints a decoded sweep stream's cells as the sweep tables
// do: colenc's round-trip-safe inference makes CellString the inverse.
func sweepReport(tab *colenc.Table) charexp.TypedReport {
	return charexp.TypedReport{Table: tab, Cell: (*colenc.Column).CellString}
}

// TestColumnarInvariance extends the metamorphic suite to the columnar
// format: for every tabular family the direct package pipeline, the
// blocking HTTP route and the async job tier emit one byte-identical
// columnar stream under workers 1 and 8, with and without a shared
// shard memo — and that stream decodes back to the exact bytes the csv
// and text routes serve under the same variants.
func TestColumnarInvariance(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		req := SweepRequest{Figure: "3", Trials: 1, Groups: 1, Banks: 1, Columns: 64, Format: "columnar"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg := q.config()
			cfg.Engine.Workers = v.Workers
			if v.Store != nil {
				cfg.ShardMemo = cache.NewTyped[[]core.GroupOutcome](v.Store, nil)
			}
			runner, err := charexp.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Release()
			out, err := runner.RunFigure(q.Figure, q.Sets, q.Format)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}}
		body := `{"figure":"3","trials":1,"groups":1,"banks":1,"cols":64,"format":"columnar"}`
		invariance.CheckPaths(t, "sweep-columnar", true, []invariance.Path{
			cli, blockingPath("/v1/sweep", body), jobPath(`{"kind":"sweep","sweep":` + body + `}`),
		})

		checkMetamorphic(t, "sweep-metamorphic", "/v1/sweep", body, sweepReport)
	})

	t.Run("workload", func(t *testing.T) {
		req := WorkloadRequest{Modules: "representative", Columns: 64, MaxX: 3, Format: "columnar"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := q.options().Resolve()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine.Workers = v.Workers
			if v.Store != nil {
				cfg.Memo = cache.NewTyped[[]workload.Result](v.Store, nil)
			}
			results, err := workload.RunFleet(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := workload.WriteReport(&b, results, q.Format); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}}
		body := `{"modules":"representative","cols":64,"maxx":3,"format":"columnar"}`
		invariance.CheckPaths(t, "workload-columnar", true, []invariance.Path{
			cli, blockingPath("/v1/workload", body), jobPath(`{"kind":"workload","workload":` + body + `}`),
		})

		checkMetamorphic(t, "workload-metamorphic", "/v1/workload", body, workload.TypedReport)
	})

	t.Run("mitigation-grid", func(t *testing.T) {
		req := ScenarioRequest{Axes: "t2=1.5,3;mitigation=none,tmr:3,ecc:2",
			Columns: 64, Groups: 1, Banks: 1, Trials: 1, Format: "columnar"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := q.options().Resolve()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine.Workers = v.Workers
			if v.Store != nil {
				cfg.Memo = cache.NewTyped[[]core.GroupOutcome](v.Store, nil)
			}
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := scenario.WriteReport(&b, res, q.Format); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}}
		body := `{"axes":"t2=1.5,3;mitigation=none,tmr:3,ecc:2","cols":64,"groups":1,"banks":1,"trials":1,"format":"columnar"}`
		invariance.CheckPaths(t, "mitigation-columnar", true, []invariance.Path{
			cli, blockingPath("/v1/scenario", body), jobPath(`{"kind":"scenario","scenario":` + body + `}`),
		})

		checkMetamorphic(t, "mitigation-metamorphic", "/v1/scenario", body, scenario.TypedReport)
	})

	t.Run("campaign", func(t *testing.T) {
		req := CampaignRequest{Workload: "bitmap-scan", Top: 5, Columns: 64, Format: "columnar"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := q.options().Resolve()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine.Workers = v.Workers
			if v.Store != nil {
				cfg.ModMemo = cache.NewTyped[[]workload.Result](v.Store, nil)
				cfg.Memo = cache.NewTyped[campaign.Eval](v.Store, nil)
			}
			res, err := campaign.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := campaign.WriteReport(&b, res, q.Format); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}}
		body := `{"workload":"bitmap-scan","top":5,"cols":64,"format":"columnar"}`
		invariance.CheckPaths(t, "campaign-columnar", true, []invariance.Path{
			cli, blockingPath("/v1/campaign", body), jobPath(`{"kind":"campaign","campaign":` + body + `}`),
		})

		checkMetamorphic(t, "campaign-metamorphic", "/v1/campaign", body, campaign.TypedReport)
	})

	t.Run("scenario", func(t *testing.T) {
		req := ScenarioRequest{Axes: "t2=1.5,3", Columns: 64, Groups: 1, Banks: 1, Trials: 1, Format: "columnar"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := q.options().Resolve()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine.Workers = v.Workers
			if v.Store != nil {
				cfg.Memo = cache.NewTyped[[]core.GroupOutcome](v.Store, nil)
			}
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := scenario.WriteReport(&b, res, q.Format); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}}
		body := `{"axes":"t2=1.5,3","cols":64,"groups":1,"banks":1,"trials":1,"format":"columnar"}`
		invariance.CheckPaths(t, "scenario-columnar", true, []invariance.Path{
			cli, blockingPath("/v1/scenario", body), jobPath(`{"kind":"scenario","scenario":` + body + `}`),
		})

		checkMetamorphic(t, "scenario-metamorphic", "/v1/scenario", body, scenario.TypedReport)
	})
}
