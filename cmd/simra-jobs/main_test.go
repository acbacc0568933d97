package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/jobs"
	"repro/internal/server"
)

// testServe starts an in-process simra-serve instance for the CLI to
// talk to.
func testServe(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// cli runs one simra-jobs invocation against base, returning the exit
// code and captured stdout/stderr.
func cli(t *testing.T, base string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-server", base}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageAndErrors(t *testing.T) {
	base := testServe(t)
	if code, _, _ := cli(t, base); code != 2 {
		t.Fatalf("no command: exit %d, want 2", code)
	}
	if code, _, errs := cli(t, base, "frobnicate"); code != 2 || !strings.Contains(errs, "unknown command") {
		t.Fatalf("unknown command: exit %d, %q", code, errs)
	}
	if code, _, errs := cli(t, base, "submit"); code != 1 || !strings.Contains(errs, "needs -kind") {
		t.Fatalf("submit without kind: exit %d, %q", code, errs)
	}
	if code, _, _ := cli(t, base, "submit", "-kind", "trng", "-params", "{nope"); code != 1 {
		t.Fatalf("bad params JSON: exit %d", code)
	}
	if code, _, errs := cli(t, base, "submit", "-kind", "nope", "-params", "{}"); code != 1 ||
		!strings.Contains(errs, "nope") {
		t.Fatalf("unknown kind: exit %d, %q", code, errs)
	}
	if code, _, _ := cli(t, base, "status", "nope"); code != 1 {
		t.Fatalf("status of unknown job: exit %d", code)
	}
	if code, _, _ := cli(t, base, "status"); code != 2 {
		t.Fatalf("status without id: exit %d", code)
	}
}

// TestSubmitWatchResult drives the quick-start flow end to end: submit a
// TRNG job, watch its SSE stream to completion, and fetch the result —
// which must match the committed simra-trng golden byte for byte.
func TestSubmitWatchResult(t *testing.T) {
	golden, err := os.ReadFile("../simra-trng/testdata/simra-trng.golden")
	if err != nil {
		t.Fatal(err)
	}
	base := testServe(t)
	code, out, errs := cli(t, base, "submit", "-q", "-kind", "trng",
		"-params", `{"bytes":64,"seed":2024,"rows":32}`)
	if code != 0 {
		t.Fatalf("submit: exit %d, %s", code, errs)
	}
	id := strings.TrimSpace(out)
	if !strings.HasPrefix(id, "trng-") {
		t.Fatalf("submit -q printed %q", id)
	}

	code, out, errs = cli(t, base, "watch", id)
	if code != 0 {
		t.Fatalf("watch: exit %d, %s", code, errs)
	}
	if !strings.Contains(out, "\tdone\t") || !strings.Contains(out, string(jobs.StateSucceeded)) {
		t.Fatalf("watch output missing done event:\n%s", out)
	}

	code, out, _ = cli(t, base, "status", "-q", id)
	if code != 0 || strings.TrimSpace(out) != string(jobs.StateSucceeded) {
		t.Fatalf("status -q: exit %d, %q", code, out)
	}

	code, out, errs = cli(t, base, "result", id)
	if code != 0 {
		t.Fatalf("result: exit %d, %s", code, errs)
	}
	if out != string(golden) {
		t.Fatal("result bytes differ from the simra-trng golden")
	}

	// A repeat watch replays the completed stream from any cursor.
	code, out, _ = cli(t, base, "watch", "-q", "-last-event-id", "1", id)
	if code != 0 || strings.TrimSpace(out) != string(jobs.StateSucceeded) {
		t.Fatalf("replay watch: exit %d, %q", code, out)
	}
}

// TestSubmitWaitAndCancel covers the -wait exit-code contract and the
// cancel flow's exit code 2.
func TestSubmitWaitAndCancel(t *testing.T) {
	base := testServe(t)
	code, out, errs := cli(t, base, "submit", "-wait", "-q", "-kind", "trng", "-params", `{"bytes":16}`)
	if code != 0 {
		t.Fatalf("submit -wait: exit %d, %s", code, errs)
	}
	id := strings.TrimSpace(out)

	// Cancel the finished job: already terminal, state stays succeeded.
	code, out, _ = cli(t, base, "cancel", id)
	if code != 0 || !strings.Contains(out, string(jobs.StateSucceeded)) {
		t.Fatalf("cancel terminal job: exit %d, %s", code, out)
	}

	// A long grid job cancels mid-run; watch reports exit code 2. The
	// distinct module seed keeps the job cold in the process-wide
	// registries (tables, samplings, fills, shard memo), so it cannot
	// finish off a sibling test's warm cache before the cancel lands.
	code, out, errs = cli(t, base, "submit", "-q", "-kind", "scenario",
		"-params", `{"axes":"t2=1.5,2,2.5,3","cols":256,"groups":4,"banks":2,"trials":600,"seed":888}`)
	if code != 0 {
		t.Fatalf("submit grid: exit %d, %s", code, errs)
	}
	id = strings.TrimSpace(out)
	if code, _, errs = cli(t, base, "cancel", id); code != 0 {
		t.Fatalf("cancel: exit %d, %s", code, errs)
	}
	code, _, errs = cli(t, base, "watch", id)
	if code != 2 || !strings.Contains(errs, "canceled") {
		t.Fatalf("watch canceled job: exit %d, %s", code, errs)
	}
}

// TestStatusAndCancelPrintServerBody pins the JSON that status and cancel
// print: the server's /v1/jobs/{id} body for the same call, indented by
// two spaces, key order and all.
func TestStatusAndCancelPrintServerBody(t *testing.T) {
	base := testServe(t)
	code, out, errs := cli(t, base, "submit", "-wait", "-q", "-kind", "trng", "-params", `{"bytes":16,"seed":11}`)
	if code != 0 {
		t.Fatalf("submit -wait: exit %d, %s", code, errs)
	}
	id := strings.TrimSpace(out)
	for _, c := range []struct{ cmd, method string }{
		{"status", http.MethodGet},
		{"cancel", http.MethodDelete},
	} {
		code, out, errs := cli(t, base, c.cmd, id)
		if code != 0 {
			t.Fatalf("%s: exit %d, %s", c.cmd, code, errs)
		}
		req, _ := http.NewRequest(c.method, base+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, bytes.TrimSpace(body), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if out != want.String() {
			t.Fatalf("%s printed\n%s\nserver body re-indented\n%s", c.cmd, out, want.String())
		}
	}
}

// TestSinkVerifiesWebhook runs the sink subcommand against a real
// completion webhook: the delivery must carry a valid signature and the
// job's terminal status JSON.
func TestSinkVerifiesWebhook(t *testing.T) {
	base := testServe(t)
	pr, pw := io.Pipe()
	var out bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	sinkCode := -1
	go func() {
		defer wg.Done()
		defer pw.Close()
		sinkCode = run([]string{"sink", "-addr", "127.0.0.1:0", "-secret", "s3cret", "-n", "1"}, &out, pw)
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatal("sink never announced its address")
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	go io.Copy(io.Discard, pr)

	code, idOut, errs := cli(t, base, "submit", "-wait", "-q", "-kind", "trng",
		"-params", `{"bytes":16,"seed":7}`,
		"-webhook-url", "http://"+addr+"/hook", "-webhook-secret", "s3cret")
	if code != 0 {
		t.Fatalf("submit: exit %d, %s", code, errs)
	}
	wg.Wait()
	if sinkCode != 0 {
		t.Fatalf("sink exit %d", sinkCode)
	}
	delivered := out.String()
	if !strings.Contains(delivered, strings.TrimSpace(idOut)) ||
		!strings.Contains(delivered, string(jobs.StateSucceeded)) {
		t.Fatalf("sink printed %q", delivered)
	}
}

// TestSinkRejectsBadSignature asserts a tampered delivery trips the
// sink's verification and exits non-zero.
func TestSinkRejectsBadSignature(t *testing.T) {
	pr, pw := io.Pipe()
	var out bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	sinkCode := -1
	go func() {
		defer wg.Done()
		defer pw.Close()
		sinkCode = run([]string{"sink", "-addr", "127.0.0.1:0", "-secret", "s3cret", "-n", "1"}, &out, pw)
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatal("sink never announced its address")
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	go io.Copy(io.Discard, pr)

	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/hook",
		strings.NewReader(`{"state":"succeeded"}`))
	req.Header.Set("X-Simra-Signature", "sha256="+fmt.Sprintf("%064x", 0))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tampered delivery got %d, want 401", resp.StatusCode)
	}
	wg.Wait()
	if sinkCode != 1 {
		t.Fatalf("sink exit %d, want 1", sinkCode)
	}
}

// TestExitState pins the exit-code contract of watch and submit -wait on
// each terminal state, and the stderr line a failed or canceled job
// leaves.
func TestExitState(t *testing.T) {
	for _, tc := range []struct {
		st     jobs.Status
		code   int
		stderr string
	}{
		{jobs.Status{ID: "j1", State: jobs.StateSucceeded}, 0, ""},
		{jobs.Status{ID: "j2", State: jobs.StateFailed, Error: "boom"}, 1, "simra-jobs: job j2 failed: boom\n"},
		{jobs.Status{ID: "j3", State: jobs.StateCanceled}, 2, "simra-jobs: job j3 canceled\n"},
	} {
		var errb bytes.Buffer
		if code := exitState(tc.st, &errb); code != tc.code || errb.String() != tc.stderr {
			t.Errorf("%s: exit %d, stderr %q; want %d, %q", tc.st.State, code, errb.String(), tc.code, tc.stderr)
		}
	}
}
