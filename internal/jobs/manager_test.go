package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID(), j.State())
	}
	st := j.Status()
	if st.State != want {
		t.Fatalf("job %s finished %s (error %q), want %s", j.ID(), st.State, st.Error, want)
	}
	return st
}

func TestSubmitRunsToSuccess(t *testing.T) {
	m := testManager(t, Config{Poll: time.Millisecond})
	j, existing, err := m.Submit(Request{
		ID:   "trng-abc",
		Kind: "trng",
		Exec: func(ctx context.Context, st *engine.Stats) (string, error) {
			tasks := []engine.Task[int]{
				func(context.Context) (int, error) { return 1, nil },
				func(context.Context) (int, error) { return 2, nil },
			}
			if _, err := engine.Run(ctx, engine.Config{Workers: 1}, st, tasks); err != nil {
				return "", err
			}
			return "payload", nil
		},
	})
	if err != nil || existing {
		t.Fatalf("Submit: existing=%v err=%v", existing, err)
	}
	st := waitState(t, j, StateSucceeded)
	if st.Cached {
		t.Fatal("executed job reported cached")
	}
	if st.Progress.ShardsDone != 2 || st.Progress.ShardsTotal != 2 {
		t.Fatalf("progress %+v, want 2/2 shards", st.Progress)
	}
	out, ok := j.Output()
	if !ok || out != "payload" {
		t.Fatalf("Output() = %q, %v", out, ok)
	}
	// The audit trail records the full path.
	var states []State
	for _, tr := range st.Audit {
		states = append(states, tr.State)
	}
	want := []State{StateQueued, StateRunning, StateSucceeded}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("audit states %v, want %v", states, want)
	}
	// The event stream ends with progress, result, done.
	evs, _, closed := j.EventsSince(0)
	if !closed {
		t.Fatal("event log still open after terminal state")
	}
	if n := len(evs); n < 4 ||
		evs[n-1].Type != "done" || evs[n-2].Type != "result" || evs[n-3].Type != "progress" {
		t.Fatalf("unexpected event tail: %+v", evs)
	}
}

func TestSubmitDedupesLiveAndSucceededJobs(t *testing.T) {
	m := testManager(t, Config{})
	release := make(chan struct{})
	exec := func(ctx context.Context, st *engine.Stats) (string, error) {
		<-release
		return "x", nil
	}
	j1, _, err := m.Submit(Request{ID: "sweep-1", Kind: "sweep", Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	j2, existing, err := m.Submit(Request{ID: "sweep-1", Kind: "sweep", Exec: exec})
	if err != nil || !existing || j1 != j2 {
		t.Fatalf("live dedupe: existing=%v same=%v err=%v", existing, j1 == j2, err)
	}
	close(release)
	waitState(t, j1, StateSucceeded)
	j3, existing, err := m.Submit(Request{ID: "sweep-1", Kind: "sweep", Exec: exec})
	if err != nil || !existing || j3 != j1 {
		t.Fatalf("succeeded dedupe: existing=%v same=%v err=%v", existing, j3 == j1, err)
	}
	met := m.Metrics()
	if met.Submitted != 3 || met.Deduped != 2 {
		t.Fatalf("metrics %+v, want 3 submitted / 2 deduped", met)
	}
}

func TestSubmitFailedJobIsRetried(t *testing.T) {
	m := testManager(t, Config{})
	boom := errors.New("boom")
	j1, _, err := m.Submit(Request{ID: "wl-1", Kind: "workload",
		Exec: func(context.Context, *engine.Stats) (string, error) { return "", boom }})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j1, StateFailed)
	if st.Error != "boom" {
		t.Fatalf("error %q", st.Error)
	}
	j2, existing, err := m.Submit(Request{ID: "wl-1", Kind: "workload",
		Exec: func(context.Context, *engine.Stats) (string, error) { return "ok", nil }})
	if err != nil || existing || j2 == j1 {
		t.Fatalf("failed job not replaced: existing=%v err=%v", existing, err)
	}
	waitState(t, j2, StateSucceeded)
}

func TestSubmitCachedCompletesInstantly(t *testing.T) {
	m := testManager(t, Config{})
	cached := "from-cache"
	j, existing, err := m.Submit(Request{ID: "scenario-1", Kind: "scenario", Cached: &cached})
	if err != nil || existing {
		t.Fatalf("existing=%v err=%v", existing, err)
	}
	// No Done() wait needed: the job is terminal at submission return.
	st := j.Status()
	if st.State != StateSucceeded || !st.Cached {
		t.Fatalf("status %+v, want instant cached success", st)
	}
	if out, ok := j.Output(); !ok || out != cached {
		t.Fatalf("Output() = %q, %v", out, ok)
	}
	met := m.Metrics()
	if met.CacheHits != 1 || met.Completed != 1 {
		t.Fatalf("metrics %+v", met)
	}
}

func TestSubmitShedsWhenQueueFull(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, st *engine.Stats) (string, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "", ctx.Err()
	}
	// First fills the worker, second the queue; third must shed.
	if _, _, err := m.Submit(Request{ID: "a", Kind: "trng", Exec: block}); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker drained "a" so "b" surely fits the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, err := m.Get("a"); err == nil && j.State() == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job a never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := m.Submit(Request{ID: "b", Kind: "trng", Exec: block}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(Request{ID: "c", Kind: "trng", Exec: block}); !errors.Is(err, ErrBusy) {
		t.Fatalf("third submit err = %v, want ErrBusy", err)
	}
	if _, err := m.Get("c"); !errors.Is(err, ErrNotFound) {
		t.Fatal("shed submission must not be stored")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, st *engine.Stats) (string, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "", ctx.Err()
	}
	if _, _, err := m.Submit(Request{ID: "running", Kind: "trng", Exec: block}); err != nil {
		t.Fatal(err)
	}
	jq, _, err := m.Submit(Request{ID: "queued", Kind: "trng", Exec: block})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel("queued")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	waitState(t, jq, StateCanceled)
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown) err = %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	started := make(chan struct{})
	j, _, err := m.Submit(Request{ID: "r", Kind: "scenario",
		Exec: func(ctx context.Context, st *engine.Stats) (string, error) {
			close(started)
			<-ctx.Done()
			return "", ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel("r"); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateCanceled)
	if st.Error != "" {
		t.Fatalf("canceled job carries error %q", st.Error)
	}
	// Cancel of a terminal job is a no-op, not an error.
	st2, err := m.Cancel("r")
	if err != nil || st2.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", st2, err)
	}
	if m.Metrics().Canceled != 1 {
		t.Fatalf("canceled counter %d", m.Metrics().Canceled)
	}
}

// TestCancelStartRaceSettlesOnce hammers the Cancel-vs-worker-start
// window: with the cancel decision and flag set split across two lock
// acquisitions, a worker starting the job in between double-settled it
// (close of closed done channel → panic) and double-adjusted the
// counters. Every job must settle exactly once, in exactly one terminal
// state, with the gauges back at zero.
func TestCancelStartRaceSettlesOnce(t *testing.T) {
	m := testManager(t, Config{Workers: 4, QueueDepth: 256})
	const n = 200
	submitted := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, _, err := m.Submit(Request{ID: fmt.Sprintf("race-%d", i), Kind: "trng",
			Exec: func(context.Context, *engine.Stats) (string, error) { return "ok", nil }})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
		go m.Cancel(j.ID())
	}
	for _, j := range submitted {
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never settled (state %s)", j.ID(), j.State())
		}
		if st := j.Status(); st.State != StateSucceeded && st.State != StateCanceled {
			t.Fatalf("job %s settled %s (error %q)", j.ID(), st.State, st.Error)
		}
	}
	met := m.Metrics()
	if met.Queued != 0 || met.Running != 0 {
		t.Fatalf("gauges queued=%d running=%d after all jobs settled", met.Queued, met.Running)
	}
	if total := met.Completed + met.Canceled + met.Failed; total != n {
		t.Fatalf("terminal counters sum %d (completed=%d canceled=%d failed=%d), want %d",
			total, met.Completed, met.Canceled, met.Failed, n)
	}
}

// waitHits polls the sink until it has recorded want deliveries.
func waitHits(t *testing.T, sink *webhookSink, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.snapshot()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("webhook deliveries %d, want %d", len(sink.snapshot()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDedupedResubmissionWebhookFires covers the webhook path through
// dedupe: a resubmission that joins a live job attaches its webhook (it
// fires on completion alongside any the job already had), and one that
// joins an already-terminal job gets its callback delivered immediately.
func TestDedupedResubmissionWebhookFires(t *testing.T) {
	sink := &webhookSink{}
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()
	m := testManager(t, Config{})
	release := make(chan struct{})
	exec := func(context.Context, *engine.Stats) (string, error) { <-release; return "x", nil }
	if _, _, err := m.Submit(Request{ID: "d", Kind: "trng", Exec: exec}); err != nil {
		t.Fatal(err)
	}
	j, existing, err := m.Submit(Request{ID: "d", Kind: "trng", Exec: exec,
		Webhook: &WebhookSpec{URL: srv.URL}})
	if err != nil || !existing {
		t.Fatalf("live dedupe: existing=%v err=%v", existing, err)
	}
	close(release)
	waitState(t, j, StateSucceeded)
	waitHits(t, sink, 1)
	if _, existing, err := m.Submit(Request{ID: "d", Kind: "trng", Exec: exec,
		Webhook: &WebhookSpec{URL: srv.URL}}); err != nil || !existing {
		t.Fatalf("terminal dedupe: existing=%v err=%v", existing, err)
	}
	waitHits(t, sink, 2)
	for i, h := range sink.snapshot() {
		if h.job != "d" || h.event != "succeeded" {
			t.Fatalf("delivery %d: job=%q event=%q", i, h.job, h.event)
		}
	}
}

// TestCloseAllowsInflightWebhookToComplete pins the Close contract:
// deliveries run under their own context, so a terminal callback racing
// shutdown completes instead of being abandoned by the base-context
// cancel.
func TestCloseAllowsInflightWebhookToComplete(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		mu.Lock()
		hits++
		mu.Unlock()
	}))
	defer srv.Close()
	m := NewManager(Config{})
	cached := "x"
	if _, _, err := m.Submit(Request{ID: "c", Kind: "trng", Cached: &cached,
		Webhook: &WebhookSpec{URL: srv.URL}}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Fatalf("deliveries completed at Close return: %d, want 1", hits)
	}
	if d, _, f := m.webhook.counts(); d != 1 || f != 0 {
		t.Fatalf("counts deliveries=%d failures=%d, want 1/0", d, f)
	}
}

func TestWait(t *testing.T) {
	m := testManager(t, Config{})
	j, _, err := m.Submit(Request{ID: "w", Kind: "trng",
		Exec: func(context.Context, *engine.Stats) (string, error) { return "done", nil }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), "w")
	if err != nil || st.State != StateSucceeded {
		t.Fatalf("Wait: %+v, %v", st, err)
	}
	_ = j
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Wait(ctx, "w"); err != nil {
		t.Fatalf("Wait on terminal job must not block: %v", err)
	}
	if _, err := m.Wait(context.Background(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait(unknown) err = %v", err)
	}
}

func TestSweepExpired(t *testing.T) {
	m := testManager(t, Config{TTL: time.Minute})
	cached := "x"
	if _, _, err := m.Submit(Request{ID: "old", Kind: "trng", Cached: &cached}); err != nil {
		t.Fatal(err)
	}
	if n := m.SweepExpired(time.Now()); n != 0 {
		t.Fatalf("fresh job swept (%d)", n)
	}
	if n := m.SweepExpired(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if _, err := m.Get("old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("expired job still retrievable")
	}
}

func TestAcquireSSECap(t *testing.T) {
	m := testManager(t, Config{MaxSSE: 2})
	rel1, _, ok := m.AcquireSSE("a")
	if !ok {
		t.Fatal("first acquire refused")
	}
	rel2, _, ok := m.AcquireSSE("b")
	if !ok {
		t.Fatal("second acquire refused")
	}
	if _, reason, ok := m.AcquireSSE("c"); ok || reason != "global" {
		t.Fatalf("third acquire: ok=%v reason=%q, want global shed", ok, reason)
	}
	met := m.Metrics()
	if met.SSEConnections != 2 || met.SSERejected != 1 || met.SSERejectedGlobal != 1 {
		t.Fatalf("metrics %+v", met)
	}
	rel1()
	rel1() // release is idempotent
	if m.Metrics().SSEConnections != 1 {
		t.Fatalf("connections %d after release", m.Metrics().SSEConnections)
	}
	if _, _, ok := m.AcquireSSE("a"); !ok {
		t.Fatal("slot not reusable after release")
	}
	rel2()
}

// TestAcquireSSEPerClientCap asserts the fairness fix: a client at its
// per-client cap sheds with reason "client" while a second client still
// gets a slot from the global pool.
func TestAcquireSSEPerClientCap(t *testing.T) {
	m := testManager(t, Config{MaxSSE: 8, MaxSSEPerClient: 2})
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, _, ok := m.AcquireSSE("greedy")
		if !ok {
			t.Fatalf("acquire %d for greedy refused", i)
		}
		releases = append(releases, rel)
	}
	if _, reason, ok := m.AcquireSSE("greedy"); ok || reason != "client" {
		t.Fatalf("over-cap acquire: ok=%v reason=%q, want client shed", ok, reason)
	}
	rel, _, ok := m.AcquireSSE("other")
	if !ok {
		t.Fatal("second client shed although the global pool has room")
	}
	met := m.Metrics()
	if met.SSERejectedClient != 1 || met.SSERejectedGlobal != 0 || met.SSEConnections != 3 {
		t.Fatalf("metrics %+v", met)
	}
	// Releasing one greedy stream frees that client's slot.
	releases[0]()
	if _, _, ok := m.AcquireSSE("greedy"); !ok {
		t.Fatal("per-client slot not reusable after release")
	}
	rel()
	releases[1]()
}

func TestJobsListsNewestFirst(t *testing.T) {
	m := testManager(t, Config{})
	a, b := "a", "b"
	if _, _, err := m.Submit(Request{ID: "first", Kind: "trng", Cached: &a}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, _, err := m.Submit(Request{ID: "second", Kind: "trng", Cached: &b}); err != nil {
		t.Fatal(err)
	}
	js := m.Jobs()
	if len(js) != 2 || js[0].ID != "second" || js[1].ID != "first" {
		t.Fatalf("order: %v", []string{js[0].ID, js[1].ID})
	}
}

func TestSubmitValidation(t *testing.T) {
	m := testManager(t, Config{})
	if _, _, err := m.Submit(Request{Kind: "trng"}); err == nil {
		t.Fatal("missing ID accepted")
	}
	if _, _, err := m.Submit(Request{ID: "x", Kind: "trng"}); err == nil {
		t.Fatal("missing Exec accepted")
	}
}

// TestStatusTerminal: a status is terminal exactly when its state is, so
// clients holding only a Status see the same state machine.
func TestStatusTerminal(t *testing.T) {
	for s, want := range map[State]bool{
		StateQueued:    false,
		StateRunning:   false,
		StateSucceeded: true,
		StateFailed:    true,
		StateCanceled:  true,
	} {
		if got := (Status{State: s}).Terminal(); got != want {
			t.Errorf("Status{State: %s}.Terminal() = %v, want %v", s, got, want)
		}
	}
}
