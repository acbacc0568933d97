// Command simra-jobs is the client for simra-serve's asynchronous job
// tier: submit expensive runs (characterization sweeps, fleet workloads,
// TRNG draws, scenario scans and envelope searches) as jobs, stream their
// per-shard progress over SSE, fetch byte-identical results, cancel, and
// verify completion webhooks (DESIGN.md §11). Every call goes through
// the Go SDK, pkg/simraclient, so its errors print in the SDK's APIError
// form and its 429/503 answers are retried.
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
	"bytes"
	"context"
	"crypto/hmac"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/pkg/simraclient"
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
	c := simraclient.New(*server, simraclient.WithToken(*token))
	ctx := context.Background()
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, rest, stdout, stderr)
	case "status":
		return cmdStatus(ctx, c, rest, stdout, stderr)
	case "watch":
		return cmdWatch(ctx, c, rest, stdout, stderr)
	case "result":
		return cmdResult(ctx, c, rest, stdout, stderr)
	case "cancel":
		return cmdCancel(ctx, c, rest, stdout, stderr)
	case "version":
		v, err := c.Version(ctx)
		return printJSON(stdout, stderr, v, err)
	case "health":
		h, err := c.Health(ctx)
		return printJSON(stdout, stderr, h, err)
	case "sink":
		return cmdSink(rest, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "simra-jobs: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// printJSON prints v as indented JSON, or the error that fetching it
// returned.
func printJSON(stdout, stderr io.Writer, v any, err error) int {
	if err != nil {
		return fail(stderr, err)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return 0
}

// exitState maps a terminal job state onto the watch/submit -wait exit
// code contract: 0 succeeded, 1 failed, 2 canceled.
func exitState(st simraclient.JobStatus, stderr io.Writer) int {
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

// jobRequest turns -kind K -params P into the job envelope
// {"kind":K, K:P}, decoded strictly into the SDK's request types: a kind
// or a parameter that they do not declare is an error here, before any
// request is sent.
func jobRequest(kind, params string) (simraclient.JobRequest, error) {
	var q simraclient.JobRequest
	var inner json.RawMessage
	if err := json.Unmarshal([]byte(params), &inner); err != nil {
		return q, fmt.Errorf("-params is not valid JSON: %w", err)
	}
	body, err := json.Marshal(map[string]any{"kind": kind, kind: inner})
	if err != nil {
		return q, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return q, fmt.Errorf("-kind %s -params: %w", kind, err)
	}
	return q, nil
}

func cmdSubmit(ctx context.Context, c *simraclient.Client, args []string, stdout, stderr io.Writer) int {
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
	q, err := jobRequest(*kind, *params)
	if err != nil {
		return fail(stderr, err)
	}
	if *webhookURL != "" {
		q.Webhook = &simraclient.JobWebhook{URL: *webhookURL, Secret: *webhookSecret}
	}
	st, err := c.SubmitJob(ctx, q)
	if err != nil {
		return fail(stderr, err)
	}
	if *wait && !st.Terminal() {
		if st, err = c.WatchJob(ctx, st.ID, nil); err != nil {
			return fail(stderr, err)
		}
	}
	if *quiet {
		fmt.Fprintln(stdout, st.ID)
	} else {
		printJSON(stdout, stderr, st, nil)
	}
	if !*wait {
		return 0
	}
	return exitState(st, stderr)
}

// jobIDArg parses a subcommand's flags and extracts its single
// positional job-id argument; ok is false after a usage error.
func jobIDArg(fs *flag.FlagSet, args []string, stderr io.Writer) (id string, ok bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return "", false
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "simra-jobs: expected exactly one <job-id> argument")
		return "", false
	}
	return fs.Arg(0), true
}

func cmdStatus(ctx context.Context, c *simraclient.Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "print only the job state")
	id, ok := jobIDArg(fs, args, stderr)
	if !ok {
		return 2
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return fail(stderr, err)
	}
	if *quiet {
		fmt.Fprintln(stdout, st.State)
		return 0
	}
	return printJSON(stdout, stderr, st, nil)
}

func cmdCancel(ctx context.Context, c *simraclient.Client, args []string, stdout, stderr io.Writer) int {
	id, ok := jobIDArg(flag.NewFlagSet("cancel", flag.ContinueOnError), args, stderr)
	if !ok {
		return 2
	}
	st, err := c.CancelJob(ctx, id)
	return printJSON(stdout, stderr, st, err)
}

// cmdResult writes a succeeded job's result bytes to stdout: the rendered
// text or csv, or the raw columnar stream.
func cmdResult(ctx context.Context, c *simraclient.Client, args []string, stdout, stderr io.Writer) int {
	id, ok := jobIDArg(flag.NewFlagSet("result", flag.ContinueOnError), args, stderr)
	if !ok {
		return 2
	}
	res, err := c.JobResult(ctx, id)
	if err != nil {
		return fail(stderr, err)
	}
	if res.Table != nil {
		stdout.Write(res.Columnar)
	} else {
		io.WriteString(stdout, res.Output)
	}
	return 0
}

// cmdWatch follows the job's SSE feed, printing one id/event/data line
// per event after -last-event-id, and exits by the job's terminal state.
func cmdWatch(ctx context.Context, c *simraclient.Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	lastID := fs.Int64("last-event-id", 0, "resume the stream after this event ID")
	quiet := fs.Bool("q", false, "print only the terminal state")
	id, ok := jobIDArg(fs, args, stderr)
	if !ok {
		return 2
	}
	st, err := c.WatchJob(ctx, id, func(ev simraclient.JobEvent) {
		if !*quiet && ev.ID > *lastID {
			fmt.Fprintf(stdout, "%d\t%s\t%s\n", ev.ID, ev.Type, ev.Data)
		}
	})
	if err != nil {
		return fail(stderr, err)
	}
	if *quiet {
		fmt.Fprintln(stdout, st.State)
	}
	return exitState(st, stderr)
}

// The sink's connection timeouts: a sender gets sinkReadHeaderTimeout to
// send its headers, an idle kept-alive connection is closed after
// sinkIdleTimeout, and on exit in-flight responses get
// sinkShutdownTimeout to reach their senders.
const (
	sinkReadHeaderTimeout = 5 * time.Second
	sinkIdleTimeout       = 2 * time.Minute
	sinkShutdownTimeout   = 5 * time.Second
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
	// The first exit code decides; later deliveries never block on it.
	done := make(chan int, 1)
	finish := func(code int) {
		select {
		case done <- code:
		default:
		}
	}
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
				finish(1)
				return
			}
		}
		mu.Lock()
		fmt.Fprintf(stdout, "%s\n", bytes.TrimSpace(body))
		served++
		hit := *n > 0 && served >= *n
		mu.Unlock()
		if hit {
			finish(0)
		}
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: sinkReadHeaderTimeout, IdleTimeout: sinkIdleTimeout}
	go srv.Serve(ln)
	code := <-done
	// Shutdown lets the handler that decided the exit finish its
	// response before the connection closes.
	ctx, cancel := context.WithTimeout(context.Background(), sinkShutdownTimeout)
	defer cancel()
	srv.Shutdown(ctx)
	return code
}
