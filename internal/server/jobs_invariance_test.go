package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/core"
	"repro/internal/invariance"
	"repro/internal/scenario"
	"repro/internal/trng"
	"repro/internal/workload"
)

// jobPathServer builds a fresh server honouring the variant's worker
// count. Server-owned paths carry their own internal caches, so the
// variant's external store only backs the direct path's memo.
func jobPathServer(t *testing.T, v invariance.Variant) (*Server, string) {
	t.Helper()
	s, ts := testServer(t, Config{Workers: v.Workers, JobPoll: time.Millisecond})
	return s, ts.URL
}

// blockingPath POSTs the raw blocking route and returns the body.
func blockingPath(route, body string) invariance.Path {
	return invariance.Path{Name: "blocking", Run: func(t *testing.T, v invariance.Variant) string {
		t.Helper()
		_, url := jobPathServer(t, v)
		code, resp := postJSON(t, url+route+"?raw=1", body)
		if code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", route, code, resp)
		}
		return resp
	}}
}

// jobPath submits the request to the async tier, waits for the terminal
// state and fetches /result.
func jobPath(body string) invariance.Path {
	return invariance.Path{Name: "job", Run: func(t *testing.T, v invariance.Variant) string {
		t.Helper()
		s, url := jobPathServer(t, v)
		code, st := submitJob(t, url, body)
		if code >= 300 {
			t.Fatalf("submit: %d", code)
		}
		final, err := s.WaitJob(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Error != "" {
			t.Fatalf("job failed: %s", final.Error)
		}
		resp, err := http.Get(url + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", resp.StatusCode, body)
		}
		return string(body)
	}}
}

// TestJobBlockingCLIEquivalence is the job tier's metamorphic suite: for
// every request family, the async job tier, the blocking HTTP route and
// the direct package pipeline (the CLI's rendering path) produce
// byte-identical output under every worker count and cache mode
// (DESIGN.md §11). The determinism contract is what makes job results
// interchangeable with blocking responses and committed CLI goldens.
func TestJobBlockingCLIEquivalence(t *testing.T) {
	t.Run("sweep", func(t *testing.T) {
		req := SweepRequest{Figure: "3", Trials: 1, Groups: 1, Banks: 1, Columns: 64, Format: "csv"}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg := charexp.Options(q).Config()
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
		body := `{"figure":"3","trials":1,"groups":1,"banks":1,"cols":64,"format":"csv"}`
		invariance.CheckPaths(t, "sweep", true, []invariance.Path{
			cli, blockingPath("/v1/sweep", body), jobPath(`{"kind":"sweep","sweep":` + body + `}`),
		})
	})

	t.Run("workload", func(t *testing.T) {
		req := WorkloadRequest{Modules: "representative", Columns: 64, MaxX: 3}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := workload.Options(q).Resolve()
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
		body := `{"modules":"representative","cols":64,"maxx":3}`
		invariance.CheckPaths(t, "workload", true, []invariance.Path{
			cli, blockingPath("/v1/workload", body), jobPath(`{"kind":"workload","workload":` + body + `}`),
		})
	})

	t.Run("trng", func(t *testing.T) {
		req := TRNGRequest{Bytes: 64, Seed: 2024, Rows: 32}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			out, err := trng.Generate(trng.Options(q))
			if err != nil {
				t.Fatal(err)
			}
			return trng.FormatHex(out)
		}}
		body := `{"bytes":64,"seed":2024,"rows":32}`
		invariance.CheckPaths(t, "trng", false, []invariance.Path{
			cli, blockingPath("/v1/trng", body), jobPath(`{"kind":"trng","trng":` + body + `}`),
		})
	})

	t.Run("scenario", func(t *testing.T) {
		req := ScenarioRequest{Axes: "t2=1.5,3", Columns: 64, Groups: 1, Banks: 1, Trials: 1}
		q, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		cli := invariance.Path{Name: "cli", Run: func(t *testing.T, v invariance.Variant) string {
			t.Helper()
			cfg, err := scenario.Options(q).Resolve()
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
		body := `{"axes":"t2=1.5,3","cols":64,"groups":1,"banks":1,"trials":1}`
		invariance.CheckPaths(t, "scenario", true, []invariance.Path{
			cli, blockingPath("/v1/scenario", body), jobPath(`{"kind":"scenario","scenario":` + body + `}`),
		})
	})
}
