package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colenc"
	"repro/internal/jobs"
	"repro/internal/scenario"
)

// colReq issues one request with optional headers and returns the full
// response plus its body bytes (columnar responses are raw binary, so the
// string-returning postJSON helper is not enough here).
func colReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestColumnarSweepResponse drives the sweep endpoint in columnar format:
// the payload is a raw colenc stream (never a JSON envelope), metadata
// travels in X-Simra-* headers, decoded rows match the csv rendering of
// the same request, and a repeat request is a byte-identical cache hit.
func TestColumnarSweepResponse(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, body := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1","format":"columnar"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ColumnarContentType {
		t.Fatalf("Content-Type %q; want %q", ct, ColumnarContentType)
	}
	if !strings.HasPrefix(string(body), colenc.Magic) {
		t.Fatal("columnar response does not start with the colenc magic")
	}
	if resp.Header.Get("X-Simra-Key") == "" {
		t.Fatal("missing X-Simra-Key")
	}
	if got := resp.Header.Get("X-Simra-Cached"); got != "false" {
		t.Fatalf("first response X-Simra-Cached = %q; want false", got)
	}
	info, err := colenc.Footer(body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := resp.Header.Get("X-Simra-Total-Rows"); hdr != strconv.Itoa(info.TotalRows) {
		t.Fatalf("X-Simra-Total-Rows %q; stream says %d", hdr, info.TotalRows)
	}
	if hdr := resp.Header.Get("X-Simra-Batch-Count"); hdr != strconv.Itoa(info.BatchCount) {
		t.Fatalf("X-Simra-Batch-Count %q; stream says %d", hdr, info.BatchCount)
	}

	// Metamorphic: decoded columnar rows reformatted ≡ the csv rendering.
	dec, err := colenc.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	_, csvEnv := postJSON(t, ts.URL+"/v1/sweep", `{"figure":"table1","format":"csv"}`)
	var csvResp Response
	if err := json.Unmarshal([]byte(csvEnv), &csvResp); err != nil {
		t.Fatal(err)
	}
	if got := sweepReport(dec).Strings().CSV(); got != csvResp.Output {
		t.Fatalf("columnar-decoded csv differs from the csv route:\n%s\n--- vs ---\n%s", got, csvResp.Output)
	}

	// Repeat request: cache hit, byte-identical stream.
	resp2, body2 := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1","format":"columnar"}`, nil)
	if got := resp2.Header.Get("X-Simra-Cached"); got != "true" {
		t.Fatalf("repeat response X-Simra-Cached = %q; want true", got)
	}
	if string(body2) != string(body) {
		t.Fatal("cache hit returned different columnar bytes")
	}
}

// TestColumnarAcceptNegotiation covers the Accept header path: an empty
// body format plus Accept: application/vnd.simra.columnar selects the
// columnar encoding, while an explicit body format always wins.
func TestColumnarAcceptNegotiation(t *testing.T) {
	_, ts := testServer(t, Config{})

	explicit, explicitBody := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1","format":"columnar"}`, nil)
	if explicit.StatusCode != http.StatusOK {
		t.Fatalf("explicit status %d", explicit.StatusCode)
	}

	neg, negBody := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1"}`,
		map[string]string{"Accept": "text/plain;q=0.5, " + ColumnarContentType})
	if ct := neg.Header.Get("Content-Type"); ct != ColumnarContentType {
		t.Fatalf("Accept negotiation served Content-Type %q", ct)
	}
	if string(negBody) != string(explicitBody) {
		t.Fatal("Accept-negotiated stream differs from the explicit-format stream")
	}

	// Explicit body format wins over Accept.
	over, overBody := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1","format":"csv"}`,
		map[string]string{"Accept": ColumnarContentType})
	if ct := over.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("explicit csv format yielded Content-Type %q; want the JSON envelope", ct)
	}
	var env Response
	if err := json.Unmarshal(overBody, &env); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(env.Output, colenc.Magic) {
		t.Fatal("explicit csv format was overridden by the Accept header")
	}
}

// TestColumnarPaging pages one columnar response through
// ?batch/?batch_rows: every page is a standalone decodable stream,
// X-Simra-Batch-* continuation headers chain the pages, the concatenated
// pages reproduce the full table, and malformed or out-of-range paging
// parameters map onto 400/422.
func TestColumnarPaging(t *testing.T) {
	_, ts := testServer(t, Config{})
	const req = `{"figure":"table1","format":"columnar"}`

	full, fullBody := colReq(t, http.MethodPost, ts.URL+"/v1/sweep", req, nil)
	if full.StatusCode != http.StatusOK {
		t.Fatalf("status %d", full.StatusCode)
	}
	want, err := colenc.Decode(fullBody)
	if err != nil {
		t.Fatal(err)
	}
	total := want.NumRows()
	if total < 3 {
		t.Fatalf("need ≥3 rows to page, got %d", total)
	}

	const rows = 2
	batches := (total + rows - 1) / rows
	var got [][]string
	for b := 0; b < batches; b++ {
		url := fmt.Sprintf("%s/v1/sweep?batch=%d&batch_rows=%d", ts.URL, b, rows)
		resp, body := colReq(t, http.MethodPost, url, req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, resp.StatusCode, body)
		}
		h := resp.Header
		if h.Get("X-Simra-Batch") != strconv.Itoa(b) ||
			h.Get("X-Simra-Batch-Count") != strconv.Itoa(batches) ||
			h.Get("X-Simra-Total-Rows") != strconv.Itoa(total) {
			t.Fatalf("batch %d headers: batch=%q count=%q total=%q", b,
				h.Get("X-Simra-Batch"), h.Get("X-Simra-Batch-Count"), h.Get("X-Simra-Total-Rows"))
		}
		next := h.Get("X-Simra-Batch-Next")
		if b < batches-1 && next != strconv.Itoa(b+1) {
			t.Fatalf("batch %d: X-Simra-Batch-Next = %q; want %d", b, next, b+1)
		}
		if b == batches-1 && next != "" {
			t.Fatalf("last batch advertises a next batch %q", next)
		}
		page, err := colenc.Decode(body)
		if err != nil {
			t.Fatalf("batch %d does not decode standalone: %v", b, err)
		}
		_, pageRows := page.Strings()
		got = append(got, pageRows...)
	}
	_, wantRows := want.Strings()
	if !reflect.DeepEqual(got, wantRows) {
		t.Fatal("concatenated pages differ from the full stream")
	}

	// Out-of-range batch is a 422; malformed paging parameters are 400s.
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"?batch=99", http.StatusUnprocessableEntity},
		{"?batch=-1", http.StatusUnprocessableEntity},
		{"?batch=abc", http.StatusBadRequest},
		{"?batch=0&batch_rows=0", http.StatusBadRequest},
		{"?batch=0&batch_rows=x", http.StatusBadRequest},
		{"?batch_rows=2", http.StatusBadRequest},
	} {
		resp, body := colReq(t, http.MethodPost, ts.URL+"/v1/sweep"+tc.query, req, nil)
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.query, resp.StatusCode, tc.code, body)
		}
		var e ErrorEnvelope
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: error is not the JSON envelope: %v", tc.query, err)
		}
		if e.Error.Message == "" || e.Error.RequestID == "" {
			t.Fatalf("%s: incomplete error envelope %+v", tc.query, e.Error)
		}
	}
}

// TestWriteColumnarStatus pins the paging status mapping by error value:
// a page outside a good stream is the caller's 422, while a stored stream
// that fails to decode is the server's 500, paged or not.
func TestWriteColumnarStatus(t *testing.T) {
	good, err := colenc.Encode(&colenc.Table{Name: "t", Cols: []colenc.Column{
		{Field: colenc.Field{Name: "n", Type: colenc.TypeInt64}, Int64s: []int64{1, 2, 3}},
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := string(good[:len(good)-1])
	for _, tc := range []struct {
		name, output, query string
		code                int
	}{
		{"page", string(good), "?batch=0&batch_rows=2", http.StatusOK},
		{"page out of range", string(good), "?batch=2&batch_rows=2", http.StatusUnprocessableEntity},
		{"page of a corrupt stream", corrupt, "?batch=0", http.StatusInternalServerError},
		{"corrupt stream", corrupt, "", http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeColumnar(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/j/result"+tc.query, nil), tc.output, nil)
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.code, rec.Body)
		}
	}
}

// TestColumnarValidOptionsContract is the format-error contract: an
// unknown format on every format-bearing family is a 422 whose
// valid_options enumerate exactly text, csv and columnar.
func TestColumnarValidOptionsContract(t *testing.T) {
	_, ts := testServer(t, Config{})
	want := []string{"text", "csv", "columnar"}
	for _, path := range []string{"/v1/sweep", "/v1/workload", "/v1/scenario", "/v1/campaign"} {
		code, body := postJSON(t, ts.URL+path, `{"format":"parquet"}`)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422", path, code)
		}
		var e ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Code != "invalid_argument" {
			t.Fatalf("%s: code %q", path, e.Error.Code)
		}
		if !reflect.DeepEqual(e.Error.ValidOptions, want) {
			t.Fatalf("%s: valid_options %v; want %v", path, e.Error.ValidOptions, want)
		}
	}
}

// TestAxisValidOptionsContract extends the 422 contract to the PR's new
// knobs: mitigation tokens on the scenario envelope and the campaign's
// workload/fleet-size parameters all answer invalid input with the full
// enumerated valid_options list, exactly like the older families.
func TestAxisValidOptionsContract(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name, path, body string
		exact            []string // full expected list (nil = check contains instead)
		contains         string
	}{
		{
			name: "scenario unknown mitigation", path: "/v1/scenario",
			body:  `{"axes":"mitigation=frob"}`,
			exact: scenario.MitigationNames(),
		},
		{
			name: "scenario even TMR width", path: "/v1/scenario",
			body:  `{"axes":"mitigation=tmr:4"}`,
			exact: scenario.MitigationNames(),
		},
		{
			name: "scenario unknown grid", path: "/v1/scenario",
			body:  `{"grid":"martian"}`,
			exact: scenario.GridNames(),
		},
		{
			name: "campaign unknown workload", path: "/v1/campaign",
			body:     `{"workload":"quantum-sort"}`,
			contains: "bitmap-scan",
		},
		{
			name: "campaign fleet size out of range", path: "/v1/campaign",
			body:  `{"size":9}`,
			exact: []string{"1", "2", "3", "4", "5", "6"},
		},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+tc.path, tc.body)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s); want 422", tc.name, code, body)
		}
		var e ErrorEnvelope
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Code != "invalid_argument" || e.Error.RequestID == "" {
			t.Fatalf("%s: envelope %+v; want invalid_argument with request id", tc.name, e.Error)
		}
		if tc.exact != nil && !reflect.DeepEqual(e.Error.ValidOptions, tc.exact) {
			t.Fatalf("%s: valid_options %v; want %v", tc.name, e.Error.ValidOptions, tc.exact)
		}
		if tc.contains != "" {
			found := false
			for _, v := range e.Error.ValidOptions {
				if v == tc.contains {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: valid_options %v; want list containing %q", tc.name, e.Error.ValidOptions, tc.contains)
			}
		}
	}
}

// TestColumnarBatchRefused pins the batch contract: the columnar
// encoding is binary and the batch envelope is JSON, so a columnar batch
// item fails in-band (siblings still execute) instead of mangling bytes
// through a JSON string.
func TestColumnarBatchRefused(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v1/batch",
		`{"requests":[
			{"kind":"sweep","sweep":{"figure":"table1","format":"columnar"}},
			{"kind":"sweep","sweep":{"figure":"table1","format":"csv"}}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var out BatchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 2 {
		t.Fatalf("got %d responses, want 2", len(out.Responses))
	}
	if !strings.Contains(out.Responses[0].Error, "columnar format is not available on /v1/batch") {
		t.Fatalf("columnar item error = %q", out.Responses[0].Error)
	}
	if out.Responses[1].Error != "" || out.Responses[1].Output == "" {
		t.Fatalf("csv sibling did not execute: %+v", out.Responses[1])
	}
}

// TestColumnarScenarioSharesShardMemo runs the same scenario first as csv
// and then as columnar: the two formats cache whole responses under
// distinct keys (both execute), but the second run replays the first
// run's per-shard engine memo instead of recomputing, and the decoded
// columnar rows reformat to the exact csv bytes.
func TestColumnarScenarioSharesShardMemo(t *testing.T) {
	s, ts := testServer(t, Config{})
	const params = `"envelope":"t2","grid":"nominal","cols":128,"groups":2,"banks":1,"trials":2`

	code, csvEnv := postJSON(t, ts.URL+"/v1/scenario", `{`+params+`,"format":"csv"}`)
	if code != http.StatusOK {
		t.Fatalf("csv status %d: %s", code, csvEnv)
	}
	var csvResp Response
	if err := json.Unmarshal([]byte(csvEnv), &csvResp); err != nil {
		t.Fatal(err)
	}
	if got := s.Executions("scenario"); got != 1 {
		t.Fatalf("csv run: %d executions, want 1", got)
	}
	hitsBefore := s.CacheStats().Hits

	resp, body := colReq(t, http.MethodPost, ts.URL+"/v1/scenario",
		`{`+params+`,"format":"columnar"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("columnar status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Simra-Key") == csvResp.Key {
		t.Fatal("columnar response reused the csv cache key")
	}
	if got := s.Executions("scenario"); got != 2 {
		t.Fatalf("columnar run: %d executions, want 2 (distinct response keys)", got)
	}
	if hits := s.CacheStats().Hits; hits <= hitsBefore {
		t.Fatalf("columnar run hit no shard memos (hits %d → %d); formats must share engine shards",
			hitsBefore, hits)
	}

	dec, err := colenc.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	tab := scenario.TypedReport(dec).Strings()
	if tab.CSV() != csvResp.Output {
		t.Fatalf("columnar-decoded csv differs from the csv route:\n%s\n--- vs ---\n%s",
			tab.CSV(), csvResp.Output)
	}
}

// TestColumnarJobResult submits a columnar-format job and fetches its
// result: the bytes are identical to the blocking route's stream, the
// result pages like any columnar response, and a ?format= that
// contradicts the submission is a 422 rather than a silent re-render.
func TestColumnarJobResult(t *testing.T) {
	_, ts := testServer(t, Config{JobPoll: time.Millisecond})

	_, blocking := colReq(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"figure":"table1","format":"columnar"}`, nil)

	code, st := submitJob(t, ts.URL,
		`{"kind":"sweep","sweep":{"figure":"table1","format":"columnar"}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != jobs.StateSucceeded {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		var body string
		_, body = postJSONGet(t, ts.URL+"/v1/jobs/"+st.ID)
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
	}

	res, resBody := colReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", "", nil)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", res.StatusCode, resBody)
	}
	if ct := res.Header.Get("Content-Type"); ct != ColumnarContentType {
		t.Fatalf("result Content-Type %q", ct)
	}
	if res.Header.Get("X-Simra-Job") != st.ID {
		t.Fatalf("X-Simra-Job %q; want %s", res.Header.Get("X-Simra-Job"), st.ID)
	}
	if string(resBody) != string(blocking) {
		t.Fatal("job result bytes differ from the blocking columnar route")
	}

	// The job result pages exactly like the blocking route.
	page, pageBody := colReq(t, http.MethodGet,
		ts.URL+"/v1/jobs/"+st.ID+"/result?batch=0&batch_rows=2", "", nil)
	if page.StatusCode != http.StatusOK || page.Header.Get("X-Simra-Batch") != "0" {
		t.Fatalf("paged result: status %d batch %q", page.StatusCode, page.Header.Get("X-Simra-Batch"))
	}
	if _, err := colenc.Decode(pageBody); err != nil {
		t.Fatalf("paged job result does not decode: %v", err)
	}

	// Explicit matching format is fine; a contradictory or unknown format
	// is a 422.
	ok, _ := colReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result?format=columnar", "", nil)
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("matching ?format=columnar: status %d", ok.StatusCode)
	}
	for _, q := range []string{"format=text", "format=parquet"} {
		bad, badBody := colReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result?"+q, "", nil)
		if bad.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("?%s: status %d, want 422 (%s)", q, bad.StatusCode, badBody)
		}
	}

	// And the reverse: a text job's result refuses ?format=columnar.
	code, tst := submitJob(t, ts.URL, `{"kind":"sweep","sweep":{"figure":"table1"}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("text submit status %d", code)
	}
	deadline = time.Now().Add(10 * time.Second)
	for tst.State != jobs.StateSucceeded {
		if time.Now().After(deadline) {
			t.Fatalf("text job stuck in %s", tst.State)
		}
		time.Sleep(2 * time.Millisecond)
		var body string
		_, body = postJSONGet(t, ts.URL+"/v1/jobs/"+tst.ID)
		if err := json.Unmarshal([]byte(body), &tst); err != nil {
			t.Fatal(err)
		}
	}
	bad, _ := colReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+tst.ID+"/result?format=columnar", "", nil)
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("text job ?format=columnar: status %d, want 422", bad.StatusCode)
	}
}

// postJSONGet issues a GET and returns status + body, mirroring postJSON.
func postJSONGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
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
