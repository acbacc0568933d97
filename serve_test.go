package simra_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	simra "repro"
)

// TestServeFacade exercises the serving layer through the public facade:
// mount the handler, serve a TRNG request twice, and watch the cache
// stats reflect the second hit.
func TestServeFacade(t *testing.T) {
	s := simra.NewServer(simra.DefaultServeConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/trng", "application/json",
			strings.NewReader(`{"bytes":16,"seed":11}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := post(); status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	if status := post(); status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	var stats simra.CacheStats = s.CacheStats()
	if stats.Executions != 1 || stats.Hits != 1 {
		t.Fatalf("cache stats = %+v; want 1 execution and 1 hit", stats)
	}
	if got := s.Executions("trng"); got != 1 {
		t.Fatalf("executions = %d; want 1", got)
	}
}

// TestServeFacadeCampaignJob submits a small campaign job through the
// facade — simra.CampaignRequest names the JobRequest.Campaign payload
// type — waits on it, and checks the job's result bytes equal the
// blocking POST /v1/campaign response for the same request.
func TestServeFacadeCampaignJob(t *testing.T) {
	s := simra.NewServer(simra.DefaultServeConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := simra.CampaignRequest{Workload: "bitmap-scan", Top: 5, Columns: 64, Format: "columnar"}
	st, existing, err := simra.SubmitJob(s, simra.JobRequest{Kind: "campaign", Campaign: &q})
	if err != nil || existing {
		t.Fatalf("submit: existing=%v err=%v", existing, err)
	}
	final, err := simra.WaitJob(context.Background(), s, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "succeeded" || final.Error != "" {
		t.Fatalf("campaign job ended %s: %s", final.State, final.Error)
	}

	get := func(method, url, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %v", method, url, resp.StatusCode, err)
		}
		return out
	}
	job := get(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", "")
	blocking := get(http.MethodPost, ts.URL+"/v1/campaign",
		`{"workload":"bitmap-scan","top":5,"cols":64,"format":"columnar"}`)
	if string(job) != string(blocking) {
		t.Fatalf("job result (%d bytes) differs from the blocking response (%d bytes)", len(job), len(blocking))
	}
}
