package simraclient

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// sdkServer spins an in-process serving instance for SDK tests.
func sdkServer(t *testing.T, cfg server.Config) (*server.Server, *Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, New(ts.URL)
}

// TestSweepFormats drives one figure through all three formats: the text
// and csv envelopes carry rendered output, the columnar response decodes
// into a typed table whose formatted rows equal the parsed csv rows.
func TestSweepFormats(t *testing.T) {
	_, c := sdkServer(t, server.Config{})
	ctx := context.Background()

	text, err := c.Sweep(ctx, SweepRequest{Figure: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if text.Output == "" || text.Table != nil || text.Kind != "sweep" {
		t.Fatalf("text result: %+v", text)
	}

	csvRes, err := c.Sweep(ctx, SweepRequest{Figure: "table1", Format: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := csv.NewReader(strings.NewReader(csvRes.Output)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	col, err := c.Sweep(ctx, SweepRequest{Figure: "table1", Format: "columnar"})
	if err != nil {
		t.Fatal(err)
	}
	if col.Table == nil || len(col.Columnar) == 0 {
		t.Fatal("columnar result carries no table")
	}
	if col.TotalRows != col.Table.NumRows() || col.BatchCount < 1 {
		t.Fatalf("stream headers: rows %d (table %d), batches %d",
			col.TotalRows, col.Table.NumRows(), col.BatchCount)
	}
	cols, rows := col.Table.Strings()
	if !reflect.DeepEqual(parsed[0], cols) {
		t.Fatalf("columnar header %v != csv header %v", cols, parsed[0])
	}
	if !reflect.DeepEqual(parsed[1:], rows) {
		t.Fatalf("columnar rows != csv rows:\n%v\nvs\n%v", rows, parsed[1:])
	}

	// The Rows iterator walks the same cells.
	var n int
	Rows(col.Table, func(i int, cells []string) {
		if !reflect.DeepEqual(cells, rows[i]) {
			t.Fatalf("Rows(%d) = %v, want %v", i, cells, rows[i])
		}
		n++
	})
	if n != col.Table.NumRows() {
		t.Fatalf("Rows visited %d of %d rows", n, col.Table.NumRows())
	}

	// Typed column access by name: the accessor finds the first column
	// and its formatted cells match the csv column.
	first := col.Table.Col(cols[0])
	if first == nil {
		t.Fatalf("Col(%q) not found", cols[0])
	}
	for i := 0; i < col.Table.NumRows(); i++ {
		if got := first.CellString(i); got != parsed[i+1][0] {
			t.Fatalf("Col(%q)[%d] = %q, csv says %q", cols[0], i, got, parsed[i+1][0])
		}
	}
}

// TestScenarioColumnar covers the scenario family end to end through the
// SDK, including cache-hit reporting on a repeat call.
func TestScenarioColumnar(t *testing.T) {
	_, c := sdkServer(t, server.Config{})
	ctx := context.Background()
	q := ScenarioRequest{Grid: "timing", Columns: 128, Groups: 2, Banks: 1, Trials: 2, Format: "columnar"}

	first, err := c.Scenario(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Table == nil || first.Cached {
		t.Fatalf("first scenario result: table=%v cached=%v", first.Table != nil, first.Cached)
	}
	again, err := c.Scenario(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || string(again.Columnar) != string(first.Columnar) {
		t.Fatalf("repeat: cached=%v identical=%v", again.Cached, string(again.Columnar) == string(first.Columnar))
	}
}

// TestRetryHonorsRetryAfter exercises the retry loop: two 429s with
// Retry-After precede a success; the client retries through them and
// counts exactly three attempts.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{
				"code": "rate_limited", "message": "slow down"}})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"kind": "trng", "output": "ok"})
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	res, err := c.TRNG(context.Background(), TRNGRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "ok" || attempts.Load() != 3 {
		t.Fatalf("output %q after %d attempts", res.Output, attempts.Load())
	}

	// With the budget exhausted the rate-limit error surfaces as APIError.
	attempts.Store(-100)
	_, err = New(ts.URL, WithRetries(1), WithBackoff(time.Millisecond)).
		TRNG(context.Background(), TRNGRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "rate_limited" {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// TestBearerAuth checks token plumbing against the real auth middleware.
func TestBearerAuth(t *testing.T) {
	s := server.New(server.Config{AuthTokens: map[string]string{"s3cret": "ci"}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	ok := New(ts.URL, WithToken("s3cret"))
	if _, err := ok.TRNG(context.Background(), TRNGRequest{}); err != nil {
		t.Fatalf("authorized call failed: %v", err)
	}

	var apiErr *APIError
	_, err := New(ts.URL, WithToken("wrong")).TRNG(context.Background(), TRNGRequest{})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("bad token: %v", err)
	}
	if apiErr.RequestID == "" {
		t.Fatal("error envelope lost the request ID")
	}
}

// TestValidOptionsSurface pins the typed error contract: an unknown
// format comes back as *APIError with the server's valid_options list.
func TestValidOptionsSurface(t *testing.T) {
	_, c := sdkServer(t, server.Config{})
	_, err := c.Workload(context.Background(), WorkloadRequest{Format: "parquet"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != "invalid_argument" {
		t.Fatalf("status %d code %q", apiErr.Status, apiErr.Code)
	}
	if want := []string{"text", "csv", "columnar"}; !reflect.DeepEqual(apiErr.ValidOptions, want) {
		t.Fatalf("valid_options %v; want %v", apiErr.ValidOptions, want)
	}
}

// TestJobLifecycle runs a columnar job through the high-level helper:
// SSE progress events arrive, the decoded result table matches the
// blocking route's bytes, and JobResult on a fresh submission honors
// ErrJobNotReady semantics via the status route.
func TestJobLifecycle(t *testing.T) {
	_, c := sdkServer(t, server.Config{JobPoll: time.Millisecond})
	ctx := context.Background()
	q := ScenarioRequest{Grid: "timing", Columns: 128, Groups: 2, Banks: 1, Trials: 2, Format: "columnar"}

	blocking, err := c.Scenario(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	var events []JobEvent
	res, err := c.RunJob(ctx, JobRequest{Kind: "scenario", Scenario: &q}, func(ev JobEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil {
		t.Fatal("job result carries no table")
	}
	if string(res.Columnar) != string(blocking.Columnar) {
		t.Fatal("job result bytes differ from the blocking route")
	}
	// A cached submission completes without watching, so events may be
	// empty only when the job short-circuited; this one hit the response
	// cache (same key as the blocking call), which is the expected path.
	st, err := c.SubmitJob(ctx, JobRequest{Kind: "scenario", Scenario: &q})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Terminal() {
		if _, err := c.WatchJob(ctx, st.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.JobResult(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestResultKindAndKey: every Result names its request kind and content
// key, whatever its format and whether it came from a blocking route or
// a job. A job's result has the key of the blocking call it equals.
func TestResultKindAndKey(t *testing.T) {
	_, c := sdkServer(t, server.Config{JobPoll: time.Millisecond})
	ctx := context.Background()
	for _, format := range []string{"text", "columnar"} {
		q := SweepRequest{Figure: "table1", Format: format}
		blocking, err := c.Sweep(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if blocking.Kind != "sweep" || blocking.Key == "" {
			t.Errorf("blocking %s sweep: kind %q, key %q", format, blocking.Kind, blocking.Key)
		}
		job, err := c.RunJob(ctx, JobRequest{Kind: "sweep", Sweep: &q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if job.Kind != "sweep" || job.Key != blocking.Key {
			t.Errorf("%s sweep job: kind %q, key %q; want sweep, %q", format, job.Kind, job.Key, blocking.Key)
		}
	}
}

// TestEmptyFigureMeansDefault: the figure is the one sweep field without
// omitempty, so an unset figure goes on the wire as "figure":"". The
// server answers that exactly as it answers a body with no figure field
// and as it answers the default figure: same key, same bytes.
func TestEmptyFigureMeansDefault(t *testing.T) {
	if b, err := json.Marshal(SweepRequest{}); err != nil || string(b) != `{"figure":""}` {
		t.Fatalf("SweepRequest{} encodes to %s (%v); want {\"figure\":\"\"}", b, err)
	}
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c, ctx := New(ts.URL), context.Background()

	q := SweepRequest{Trials: 1, Groups: 1, Banks: 1, Columns: 64, Format: "csv"}
	unset, err := c.Sweep(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Figure = "3"
	explicit, err := c.Sweep(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"trials":1,"groups":1,"banks":1,"cols":64,"format":"csv"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var absent Envelope
	if err := json.NewDecoder(resp.Body).Decode(&absent); err != nil {
		t.Fatal(err)
	}
	if unset.Key != explicit.Key || unset.Output != explicit.Output {
		t.Errorf("unset figure: key %s; figure 3: key %s", unset.Key, explicit.Key)
	}
	if absent.Key != explicit.Key || absent.Output != explicit.Output {
		t.Errorf("absent figure: key %s; figure 3: key %s", absent.Key, explicit.Key)
	}
}

// TestBatchInBand checks batch plumbing: sibling items execute even when
// one fails in-band, and the columnar refusal is reported per item.
func TestBatchInBand(t *testing.T) {
	_, c := sdkServer(t, server.Config{})
	out, err := c.Batch(context.Background(), BatchRequest{Requests: []BatchItem{
		{Kind: "trng", TRNG: &TRNGRequest{Bytes: 16}},
		{Kind: "sweep", Sweep: &SweepRequest{Figure: "table1", Format: "columnar"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d responses", len(out))
	}
	if out[0].Error != "" || out[0].Output == "" {
		t.Fatalf("trng item: %+v", out[0])
	}
	if !strings.Contains(out[1].Error, "columnar format is not available") {
		t.Fatalf("columnar item error %q", out[1].Error)
	}
}

// TestVersionAndSpec checks the metadata routes round-trip through the
// client.
func TestVersionAndSpec(t *testing.T) {
	_, c := sdkServer(t, server.Config{})
	v, err := c.Version(context.Background())
	if err != nil || v.APIRevision == "" {
		t.Fatalf("version: %+v, %v", v, err)
	}
	spec, err := c.OpenAPI(context.Background())
	if err != nil || !strings.Contains(string(spec), "\"/v1/sweep\"") {
		t.Fatalf("openapi: %v", err)
	}
}

// TestWatchJobUnknownIDFailsAtOnce checks that WatchJob does not retry a
// status that retrying cannot fix: an unknown job's 404 comes back as the
// server's not_found envelope after exactly one request.
func TestWatchJobUnknownIDFailsAtOnce(t *testing.T) {
	s := server.New(server.Config{})
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	_, err := New(ts.URL).WatchJob(context.Background(), "trng-nope", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Fatalf("watch of an unknown job: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("%d requests, want 1", hits.Load())
	}
}

// TestWatchJobReadsWholeErrorBody sends an error envelope in two flushed
// pieces: WatchJob must read past the first piece and decode the whole
// envelope, not fall back to the http_<status> code.
func TestWatchJobReadsWholeErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found",`)
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, `"message":"no such job"}}`)
	}))
	defer ts.Close()
	_, err := New(ts.URL, WithRetries(0)).WatchJob(context.Background(), "x", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" || apiErr.Message != "no such job" {
		t.Fatalf("split error body decoded as %v", err)
	}
}

// TestRunJobRoundTrips counts the requests one RunJob makes against a
// live server: submit, the event stream and the result. The done event
// carries the terminal status, so no status request follows the watch,
// and the status it carries is the one the status route reports.
func TestRunJobRoundTrips(t *testing.T) {
	s := server.New(server.Config{JobPoll: time.Millisecond})
	var mu sync.Mutex
	var reqs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs = append(reqs, r.Method+" "+r.URL.Path)
		mu.Unlock()
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := New(ts.URL)
	q := JobRequest{Kind: "scenario", Scenario: &ScenarioRequest{Grid: "timing", Columns: 128, Groups: 2, Banks: 1, Trials: 2}}
	if _, err := c.RunJob(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), reqs...)
	mu.Unlock()
	if len(got) != 3 || got[0] != "POST /v1/jobs" ||
		!strings.HasSuffix(got[1], "/events") || !strings.HasSuffix(got[2], "/result") {
		t.Fatalf("RunJob made %d requests %q; want submit, events, result", len(got), got)
	}

	id := strings.TrimSuffix(strings.TrimPrefix(got[1], "GET /v1/jobs/"), "/events")
	watched, err := c.WatchJob(context.Background(), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	polled, err := c.Job(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(watched, polled) {
		t.Fatalf("done-event status %+v differs from the status route's %+v", watched, polled)
	}
	if watched.Started == nil || watched.Finished == nil {
		t.Fatalf("done-event status %+v lacks started/finished", watched)
	}
}

// TestWatchJobOlderDonePayload: a done event without an id (a server that
// sends only {state, error} there) makes WatchJob read the status route.
func TestWatchJobOlderDonePayload(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if strings.HasSuffix(r.URL.Path, "/events") {
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, "id: 1\nevent: done\ndata: {\"state\":\"succeeded\",\"error\":\"\"}\n\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"id":"j1","kind":"trng","state":"succeeded"}`)
	}))
	defer ts.Close()
	st, err := New(ts.URL).WatchJob(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || st.State != "succeeded" || hits.Load() != 2 {
		t.Fatalf("status %+v after %d requests; want j1 succeeded from the status route", st, hits.Load())
	}
}
