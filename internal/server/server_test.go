package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/scenario"
)

// testServer spins a serving instance over httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallSweep is a deliberately tiny sweep request for concurrency tests.
func smallSweep() string {
	return `{"figure":"3","trials":1,"groups":1,"banks":1,"cols":64,"format":"csv"}`
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestCoalescingExecutesOnce is the acceptance criterion: N concurrent
// identical requests execute exactly one engine run, and every response —
// coalesced, cached or computed — carries byte-identical output.
func TestCoalescingExecutesOnce(t *testing.T) {
	s, ts := testServer(t, Config{})
	const n = 12
	outputs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/sweep", smallSweep())
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
				return
			}
			var r Response
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outputs[i] = r.Output
		}(i)
	}
	wg.Wait()
	if got := s.Executions("sweep"); got != 1 {
		t.Fatalf("%d concurrent identical requests executed %d engine runs; want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if outputs[0] == "" {
		t.Fatal("empty sweep output")
	}
	// A later identical request is a pure cache hit.
	_, body := postJSON(t, ts.URL+"/v1/sweep", smallSweep())
	var r Response
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Cached || r.Output != outputs[0] {
		t.Fatalf("follow-up request: cached=%v, identical=%v; want true, true", r.Cached, r.Output == outputs[0])
	}
	if got := s.Executions("sweep"); got != 1 {
		t.Fatalf("cache hit triggered another execution (%d total)", got)
	}
}

// TestSweepMatchesCharexpGolden pins the serving layer's byte contract:
// the raw response for the default Fig. 3 sweep equals the committed
// charexp golden — the same bytes an uncached direct run renders.
func TestSweepMatchesCharexpGolden(t *testing.T) {
	golden, err := os.ReadFile("../charexp/testdata/figure3.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{})
	for i, label := range []string{"computed", "cached"} {
		status, body := postJSON(t, ts.URL+"/v1/sweep?raw=1", `{"figure":"3","format":"text"}`)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, status, body)
		}
		if body != string(golden) {
			t.Fatalf("%s (pass %d): served sweep bytes differ from charexp golden", label, i)
		}
	}
}

// TestWorkloadMatchesCLIGolden asserts a served workload response is
// byte-identical to cmd/simra-work's stdout for the same parameters (the
// committed CLI golden), cached and uncached.
func TestWorkloadMatchesCLIGolden(t *testing.T) {
	golden, err := os.ReadFile("../../cmd/simra-work/testdata/simra-work.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{})
	req := `{"workloads":"all","modules":"all","cols":256,"format":"text"}`
	for i, label := range []string{"computed", "cached"} {
		status, body := postJSON(t, ts.URL+"/v1/workload?raw=1", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, status, body)
		}
		if body != string(golden) {
			t.Fatalf("%s (pass %d): served workload bytes differ from the simra-work golden", label, i)
		}
	}
}

// TestTRNGMatchesCLIGolden asserts the TRNG endpoint serves the same
// deterministic hex dump the CLI prints for the same seed.
func TestTRNGMatchesCLIGolden(t *testing.T) {
	golden, err := os.ReadFile("../../cmd/simra-trng/testdata/simra-trng.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/trng?raw=1", `{"bytes":64,"seed":2024,"rows":32}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if body != string(golden) {
		t.Fatal("served TRNG bytes differ from the simra-trng golden")
	}
}

// TestScenarioMatchesCLI asserts a served scenario response — grid scan
// and envelope search, computed and cached — is byte-identical to what
// cmd/simra-scan prints on stdout for the same parameters (both render
// through scenario.WriteReport).
func TestScenarioMatchesCLI(t *testing.T) {
	s, ts := testServer(t, Config{})
	cases := []struct {
		name, req string
		opts      scenario.Options
	}{
		{"grid", `{"axes":"t2=1.5,3","cols":128,"groups":2,"banks":1,"trials":2}`,
			scenario.Options{Grid: "timing", Axes: "t2=1.5,3", Columns: 128, Groups: 2, Banks: 1, Trials: 2}},
		{"envelope", `{"envelope":"t2","grid":"nominal","cols":128,"groups":2,"banks":1,"trials":2}`,
			scenario.Options{Grid: "nominal", Envelope: "t2", Target: 0.9, Columns: 128, Groups: 2, Banks: 1, Trials: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := c.opts.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			if err := scenario.WriteReport(&want, res, "text"); err != nil {
				t.Fatal(err)
			}
			for i, label := range []string{"computed", "cached"} {
				status, body := postJSON(t, ts.URL+"/v1/scenario?raw=1", c.req)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", label, status, body)
				}
				if body != want.String() {
					t.Fatalf("%s (pass %d): served scenario bytes differ from the CLI render", label, i)
				}
			}
		})
	}
	if got := s.Executions("scenario"); got != 2 {
		t.Fatalf("scenario executions = %d; want 2 (one per distinct request)", got)
	}
}

// TestScenarioKeyNormalization pins the cache-key defaulting: requests
// that spell out a default (modules, op, grid, format, envelope target)
// must hash to the same whole-response key as requests that omit it.
func TestScenarioKeyNormalization(t *testing.T) {
	norm := func(q ScenarioRequest) ScenarioRequest {
		t.Helper()
		n, err := q.normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	base := norm(ScenarioRequest{Envelope: "t2"})
	spelled := norm(ScenarioRequest{
		Op: "activation", Grid: "timing", Modules: "representative",
		Envelope: "t2", Target: 0.9, Format: "text",
	})
	if base.key() != spelled.key() {
		t.Fatal("spelled-out defaults fragment the scenario response cache")
	}
	if other := norm(ScenarioRequest{Envelope: "t2", Modules: "full"}); other.key() == base.key() {
		t.Fatal("distinct fleets must not share a response key")
	}
}

// TestScenarioSharesShardMemo pins the cross-request shard sharing: two
// distinct scenario requests whose grids overlap reuse each other's point
// shards through the server's shared memo.
func TestScenarioSharesShardMemo(t *testing.T) {
	s, ts := testServer(t, Config{})
	base := `{"grid":"nominal","axes":"t2=1.5,3","cols":128,"groups":2,"banks":1,"trials":2}`
	wider := `{"grid":"nominal","axes":"t2=1.5,3,4.5","cols":128,"groups":2,"banks":1,"trials":2}`
	if status, body := postJSON(t, ts.URL+"/v1/scenario", base); status != http.StatusOK {
		t.Fatalf("base: status %d: %s", status, body)
	}
	before := s.CacheStats().Hits
	if status, body := postJSON(t, ts.URL+"/v1/scenario", wider); status != http.StatusOK {
		t.Fatalf("wider: status %d: %s", status, body)
	}
	if s.CacheStats().Hits <= before {
		t.Fatal("overlapping scenario request reused no point shards")
	}
}

// TestBatch runs a heterogeneous batch, with one failing item reported
// in-band.
func TestBatch(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := `{"requests":[
		{"kind":"trng","trng":{"bytes":16,"seed":7}},
		{"kind":"trng","trng":{"bytes":16,"seed":7}},
		{"kind":"sweep","sweep":{"figure":"14"}},
		{"kind":"nope"}
	]}`
	status, out := postJSON(t, ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var batch BatchResponse
	if err := json.Unmarshal([]byte(out), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != 4 {
		t.Fatalf("%d responses; want 4", len(batch.Responses))
	}
	if batch.Responses[0].Output == "" || batch.Responses[0].Output != batch.Responses[1].Output {
		t.Fatal("identical batch items returned different outputs")
	}
	if !batch.Responses[1].Cached {
		t.Fatal("second identical batch item was not served from cache")
	}
	if batch.Responses[2].Error != "" || batch.Responses[2].Output == "" {
		t.Fatalf("walkthrough item failed: %+v", batch.Responses[2])
	}
	if batch.Responses[3].Error == "" {
		t.Fatal("unknown kind did not report an error")
	}
	if got := s.Executions("trng"); got != 1 {
		t.Fatalf("batch executed %d TRNG runs; want 1", got)
	}
}

// TestBackpressure exercises the slot/queue accounting directly: with one
// slot and no queue, a second concurrent execution is shed with errBusy,
// and the shed counter advances.
func TestBackpressure(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: -1})
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.acquire(context.Background()); err != errBusy {
		t.Fatalf("second acquire = %v; want errBusy", err)
	}
	release()
	release2, err := s.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
	release2()
	if s.busy.Load() != 1 {
		t.Fatalf("shed counter = %d; want 1", s.busy.Load())
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("inflight = %d after releases; want 0", s.inflight.Load())
	}
}

// TestBlockingRetriesWhenCoalescedExecutionCanceled pins the blocking
// path's coalescing guarantee against the job tier: a job execution runs
// under its job's cancelable context in the same store, so a blocking
// request that coalesces onto it inherits context.Canceled when the job
// is DELETEd. The blocking caller must not surface that foreign
// cancellation — it re-enters the store and computes itself.
func TestBlockingRetriesWhenCoalescedExecutionCanceled(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	key := cache.Key{0xca}
	started := make(chan struct{})
	release := make(chan struct{})
	// Stand in for a job execution holding the key that ends canceled.
	go s.store.Do(key, func() (any, int64, error) {
		close(started)
		<-release
		return nil, 0, context.Canceled
	})
	<-started
	type result struct {
		resp Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := s.respond(context.Background(), "trng", key,
			func(context.Context, *engine.Stats, dram.ModulePool) (string, error) { return "recomputed", nil })
		done <- result{resp, err}
	}()
	// Only release the fake execution once the blocking request has
	// coalesced onto it, so the retry path is actually exercised.
	deadline := time.Now().Add(5 * time.Second)
	for s.store.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocking request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("blocking request inherited the job's cancellation: %v", r.err)
	}
	if r.resp.Output != "recomputed" {
		t.Fatalf("output %q, want %q", r.resp.Output, "recomputed")
	}
	if got := s.Executions("trng"); got != 1 {
		t.Fatalf("executions = %d; want 1 (the retry's own compute)", got)
	}
}

// TestBusyMapsTo503 asserts the HTTP mapping of shed load: 503 with a
// Retry-After header and a JSON error body.
func TestBusyMapsTo503(t *testing.T) {
	s, ts := testServer(t, Config{MaxInflight: 1, MaxQueue: -1})
	// Occupy the only slot so any execution is shed.
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, err := http.Post(ts.URL+"/v1/trng", "application/json",
		strings.NewReader(`{"bytes":16,"seed":99}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s); want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After header")
	}
	var e ErrorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
		t.Fatalf("shed response body %q is not a JSON error envelope", body)
	}
}

// TestCacheEviction bounds the response cache tightly and checks LRU
// accounting under distinct requests.
func TestCacheEviction(t *testing.T) {
	s, ts := testServer(t, Config{CacheBytes: 600})
	for seed := 1; seed <= 4; seed++ {
		status, body := postJSON(t, ts.URL+"/v1/trng",
			fmt.Sprintf(`{"bytes":64,"seed":%d}`, seed))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, body)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 600-byte budget: %+v", st)
	}
	if st.Bytes > 600 {
		t.Fatalf("cache grew past its budget: %+v", st)
	}
}

// TestValidation covers the 4xx surface.
// TestValidation pins the error contract of every endpoint: a malformed
// body is 400, a well-formed body naming unknown figures/workloads/ops/
// axes (or out-of-range values) is 422, and both carry a JSON error body
// — for unknown names, one listing the valid options.
func TestValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		path, body string
		want       int
		errHas     string // substring the JSON "error" field must contain
	}{
		// Malformed bodies: 400.
		{"/v1/sweep", `not json`, http.StatusBadRequest, ""},
		{"/v1/sweep", `{"figure":"3","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"/v1/workload", `{"modules":`, http.StatusBadRequest, ""},
		{"/v1/trng", `[1,2,3]`, http.StatusBadRequest, ""},
		{"/v1/scenario", `{"op":3}`, http.StatusBadRequest, ""},
		{"/v1/batch", `{"requests":"nope"}`, http.StatusBadRequest, ""},
		// Well-formed but invalid values: 422 listing valid options.
		{"/v1/sweep", `{"figure":"99"}`, http.StatusUnprocessableEntity, "valid: table1"},
		{"/v1/sweep", `{"figure":"3","format":"yaml"}`, http.StatusUnprocessableEntity, "valid: text, csv, columnar"},
		{"/v1/workload", `{"format":"parquet"}`, http.StatusUnprocessableEntity, "valid: text, csv, columnar"},
		{"/v1/scenario", `{"format":"arrow"}`, http.StatusUnprocessableEntity, "valid: text, csv, columnar"},
		{"/v1/workload", `{"modules":"martian"}`, http.StatusUnprocessableEntity, "valid: representative, full, samsung, all"},
		{"/v1/workload", `{"workloads":"no-such-workload"}`, http.StatusUnprocessableEntity, "have bitmap-scan"},
		{"/v1/trng", `{"rows":3}`, http.StatusUnprocessableEntity, "power of two"},
		{"/v1/trng", `{"bytes":-5}`, http.StatusUnprocessableEntity, "bytes"},
		{"/v1/scenario", `{"op":"refresh"}`, http.StatusUnprocessableEntity, "valid: activation, maj, copy"},
		{"/v1/scenario", `{"grid":"galactic"}`, http.StatusUnprocessableEntity, "valid: nominal, timing"},
		{"/v1/scenario", `{"axes":"freq=1"}`, http.StatusUnprocessableEntity, "unknown axis"},
		{"/v1/scenario", `{"envelope":"pattern"}`, http.StatusUnprocessableEntity, "valid: t1, t2, temp, vpp, aging"},
	}
	for _, c := range cases {
		status, body := postJSON(t, ts.URL+c.path, c.body)
		if status != c.want {
			t.Errorf("POST %s %s: status %d; want %d", c.path, c.body, status, c.want)
			continue
		}
		var e ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Message == "" {
			t.Errorf("POST %s %s: error body %q is not a JSON error envelope", c.path, c.body, body)
			continue
		}
		if c.errHas != "" && !strings.Contains(e.Error.Message, c.errHas) {
			t.Errorf("POST %s %s: error %q does not mention %q", c.path, c.body, e.Error.Message, c.errHas)
		}
		if e.Error.RequestID == "" {
			t.Errorf("POST %s %s: error body carries no request_id", c.path, c.body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: status %d; want 405", resp.StatusCode)
	}
}

// TestHealthAndMetrics covers the observability endpoints.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"status":"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	postJSON(t, ts.URL+"/v1/trng", `{"bytes":16,"seed":5}`)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(b)
	for _, want := range []string{
		`simra_serve_requests_total{kind="trng"} 1`,
		`simra_serve_executions_total{kind="trng"} 1`,
		"simra_cache_entries 1",
		"simra_serve_inflight 0",
		"simra_cache_capacity_bytes",
		"simra_dram_table_sets ",
		"simra_dram_table_bytes ",
		"simra_dram_table_budget_bytes 268435456",
		"simra_dram_table_evictions_total ",
		"simra_dram_table_set_derivations_total ",
		"simra_dram_table_row_derivations_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestListenAndServeGracefulShutdown drives the real listener: readiness
// handshake, one request, then context-cancelled shutdown.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, ready) }()
	addr := <-ready
	status, _ := postJSON(t, "http://"+addr+"/v1/trng", `{"bytes":16,"seed":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown returned %v; want nil", err)
	}
}

// TestListenAndServeClosesStalledHeaders drives the real listener with a
// client that sends half a request and then stalls: the server must close
// the connection once readHeaderTimeout passes instead of holding it open.
func TestListenAndServeClosesStalledHeaders(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, ready) }()
	defer func() {
		cancel()
		<-done
	}()
	conn, err := net.Dial("tcp", <-ready)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/trng HTTP/1.1\r\nHost: simra\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled header; want closed after %v",
			time.Since(start), readHeaderTimeout)
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled header read %d bytes, err %v; want the connection closed", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v; want about %v", waited, readHeaderTimeout)
	}
}
