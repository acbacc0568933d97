// Command simra-jobs is the client for simra-serve's asynchronous job
// tier: submit expensive runs (characterization sweeps, fleet workloads,
// TRNG draws, scenario scans and envelope searches) as jobs, stream their
// per-shard progress over SSE, fetch byte-identical results, cancel, and
// verify completion webhooks (DESIGN.md §11).
//
// Usage:
//
//	simra-jobs [-server URL] submit -kind scenario -params '{"envelope":"t2"}'
//	simra-jobs [-server URL] status <job-id>
//	simra-jobs [-server URL] watch <job-id>       # SSE to completion
//	simra-jobs [-server URL] result <job-id>      # raw bytes to stdout
//	simra-jobs [-server URL] cancel <job-id>
//	simra-jobs [-server URL] version              # server build + API revision
//	simra-jobs [-server URL] health               # cluster role + peer health
//	simra-jobs sink -addr 127.0.0.1:0 -secret s3cret -n 1
//
// A global -token adds "Authorization: Bearer <token>" to every request
// (including the SSE stream) for servers running with -auth-tokens.
//
// submit prints the job's status JSON (just the ID with -q); with -wait
// it blocks until the job is terminal. watch exits 0 when the job
// succeeded, 1 when it failed and 2 when it was canceled. result writes
// exactly the bytes the blocking POST (and the corresponding CLI) would
// produce. sink runs a local webhook receiver that verifies the
// HMAC-SHA256 signature of each delivery and exits after -n of them —
// the CI e2e job uses it to assert webhook delivery end to end.
package main

import (
	"bufio"
	"bytes"
	"crypto/hmac"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fail prints a CLI error and returns the generic failure code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "simra-jobs:", err)
	return 1
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: simra-jobs [-server URL] [-token T] {submit|status|watch|result|cancel|version|health|sink} ...")
	return 2
}

// run dispatches one invocation; the exit code is returned for main.
func run(args []string, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("simra-jobs", flag.ContinueOnError)
	global.SetOutput(stderr)
	server := global.String("server", "http://127.0.0.1:8077", "simra-serve base URL")
	token := global.String("token", "", "bearer token sent on every request (servers with -auth-tokens)")
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		return usage(stderr)
	}
	c := &client{base: strings.TrimRight(*server, "/"), token: *token, http: &http.Client{}}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(c, rest, stdout, stderr)
	case "status":
		return cmdStatus(c, rest, stdout, stderr)
	case "watch":
		return cmdWatch(c, rest, stdout, stderr)
	case "result":
		return cmdResult(c, rest, stdout, stderr)
	case "cancel":
		return cmdCancel(c, rest, stdout, stderr)
	case "version":
		return cmdServerJSON(c, "/v1/version", stdout, stderr)
	case "health":
		return cmdServerJSON(c, "/healthz", stdout, stderr)
	case "sink":
		return cmdSink(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "simra-jobs: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// client talks to one simra-serve instance.
type client struct {
	base  string
	token string
	http  *http.Client
}

// authorize attaches the bearer token, when configured.
func (c *client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// getJSON decodes a JSON endpoint, reporting non-2xx bodies as errors.
func (c *client) getJSON(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// exitState maps a terminal job state onto the watch/submit -wait exit
// code contract: 0 succeeded, 1 failed, 2 canceled.
func exitState(st jobs.Status, stderr io.Writer) int {
	switch st.State {
	case jobs.StateSucceeded:
		return 0
	case jobs.StateCanceled:
		fmt.Fprintf(stderr, "simra-jobs: job %s canceled\n", st.ID)
		return 2
	default:
		fmt.Fprintf(stderr, "simra-jobs: job %s failed: %s\n", st.ID, st.Error)
		return 1
	}
}

// printStatus renders a status to stdout: the full JSON document, or the
// bare job ID in quiet mode.
func printStatus(stdout io.Writer, st jobs.Status, quiet bool) {
	if quiet {
		fmt.Fprintln(stdout, st.ID)
		return
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

func cmdSubmit(c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "", "request family: sweep, workload, trng, scenario or campaign")
	params := fs.String("params", "{}", "request parameters as JSON (the blocking route's body)")
	webhookURL := fs.String("webhook-url", "", "completion webhook URL (optional)")
	webhookSecret := fs.String("webhook-secret", "", "HMAC-SHA256 webhook signing secret (optional)")
	wait := fs.Bool("wait", false, "block until the job is terminal; exit code reflects its state")
	quiet := fs.Bool("q", false, "print only the job ID")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *kind == "" {
		return fail(stderr, fmt.Errorf("submit needs -kind"))
	}
	var inner json.RawMessage
	if err := json.Unmarshal([]byte(*params), &inner); err != nil {
		return fail(stderr, fmt.Errorf("-params is not valid JSON: %w", err))
	}
	body := map[string]any{"kind": *kind, *kind: inner}
	if *webhookURL != "" {
		body["webhook"] = jobs.WebhookSpec{URL: *webhookURL, Secret: *webhookSecret}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return fail(stderr, err)
	}
	var st jobs.Status
	if err := c.getJSON(http.MethodPost, "/v1/jobs", payload, &st); err != nil {
		return fail(stderr, err)
	}
	if !*wait {
		printStatus(stdout, st, *quiet)
		return 0
	}
	st, err = c.waitTerminal(st.ID)
	if err != nil {
		return fail(stderr, err)
	}
	printStatus(stdout, st, *quiet)
	return exitState(st, stderr)
}

// waitTerminal polls the status endpoint until the job settles.
func (c *client) waitTerminal(id string) (jobs.Status, error) {
	for {
		var st jobs.Status
		if err := c.getJSON(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// jobIDArg extracts the single positional job-id argument.
func jobIDArg(fs *flag.FlagSet, stderr io.Writer) (string, bool) {
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "simra-jobs: expected exactly one <job-id> argument")
		return "", false
	}
	return fs.Arg(0), true
}

func cmdStatus(c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quiet := fs.Bool("q", false, "print only the job state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobIDArg(fs, stderr)
	if !ok {
		return 2
	}
	var st jobs.Status
	if err := c.getJSON(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return fail(stderr, err)
	}
	if *quiet {
		fmt.Fprintln(stdout, st.State)
		return 0
	}
	printStatus(stdout, st, false)
	return 0
}

func cmdCancel(c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobIDArg(fs, stderr)
	if !ok {
		return 2
	}
	var st jobs.Status
	if err := c.getJSON(http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return fail(stderr, err)
	}
	printStatus(stdout, st, false)
	return 0
}

func cmdResult(c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("result", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobIDArg(fs, stderr)
	if !ok {
		return 2
	}
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return fail(stderr, err)
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(stderr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, fmt.Errorf("result %s: %s: %s", id, resp.Status, strings.TrimSpace(string(data))))
	}
	stdout.Write(data)
	return 0
}

// cmdWatch streams the job's SSE feed, printing one line per event, and
// exits by the terminal state carried in the "done" event.
func cmdWatch(c *client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lastID := fs.Int64("last-event-id", 0, "resume the stream after this event ID")
	quiet := fs.Bool("q", false, "print only the terminal state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	id, ok := jobIDArg(fs, stderr)
	if !ok {
		return 2
	}
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fail(stderr, err)
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(*lastID))
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return fail(stderr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fail(stderr, fmt.Errorf("events %s: %s: %s", id, resp.Status, strings.TrimSpace(string(data))))
	}
	final, err := streamEvents(resp.Body, stdout, *quiet)
	if err != nil {
		return fail(stderr, err)
	}
	if final == "" {
		return fail(stderr, fmt.Errorf("stream ended before the job finished"))
	}
	if *quiet {
		fmt.Fprintln(stdout, final)
	}
	return exitState(jobs.Status{ID: id, State: jobs.State(final)}, stderr)
}

// streamEvents consumes one SSE stream, echoing events and returning the
// terminal state from the "done" event ("" when the stream ended early).
func streamEvents(r io.Reader, stdout io.Writer, quiet bool) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var id, event, data string
	final := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			if event == "" && data == "" {
				continue
			}
			if !quiet {
				fmt.Fprintf(stdout, "%s\t%s\t%s\n", id, event, data)
			}
			if event == "done" {
				var done struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &done); err == nil {
					final = done.State
				}
			}
			id, event, data = "", "", ""
		}
	}
	return final, sc.Err()
}

// cmdServerJSON pretty-prints one GET endpoint's JSON document — the
// version and health subcommands.
func cmdServerJSON(c *client, path string, stdout, stderr io.Writer) int {
	var doc map[string]any
	if err := c.getJSON(http.MethodGet, path, nil, &doc); err != nil {
		return fail(stderr, err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
	return 0
}

// The sink's connection timeouts: a sender gets sinkReadHeaderTimeout to
// send its headers, and an idle kept-alive connection is closed after
// sinkIdleTimeout.
const (
	sinkReadHeaderTimeout = 5 * time.Second
	sinkIdleTimeout       = 2 * time.Minute
)

// cmdSink runs a local webhook receiver: it verifies each delivery's
// signature against -secret, prints the delivered status JSON, and exits
// once -n deliveries arrived (0 = run until interrupted).
func cmdSink(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sink", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	secret := fs.String("secret", "", "expected HMAC-SHA256 signing secret (empty = skip verification)")
	n := fs.Int("n", 1, "exit after this many verified deliveries (0 = serve forever)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "simra-jobs: sink listening on %s\n", ln.Addr())
	done := make(chan int, 1)
	var mu sync.Mutex
	var served int
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if *secret != "" {
			want := "sha256=" + jobs.Sign(*secret, body)
			got := r.Header.Get("X-Simra-Signature")
			if !hmac.Equal([]byte(got), []byte(want)) {
				fmt.Fprintf(stderr, "simra-jobs: sink: BAD SIGNATURE %q on job %s\n",
					got, r.Header.Get("X-Simra-Job"))
				http.Error(w, "bad signature", http.StatusUnauthorized)
				done <- 1
				return
			}
		}
		mu.Lock()
		fmt.Fprintf(stdout, "%s\n", bytes.TrimSpace(body))
		served++
		hit := *n > 0 && served >= *n
		mu.Unlock()
		if hit {
			select {
			case done <- 0:
			default:
			}
		}
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: sinkReadHeaderTimeout, IdleTimeout: sinkIdleTimeout}
	go srv.Serve(ln)
	code := <-done
	srv.Close()
	return code
}
