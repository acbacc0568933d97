package jobs

import (
	"context"
	"sync"
	"time"

	"repro/internal/engine"
)

// State is a job's lifecycle position. The machine is
//
//	queued → running → succeeded | failed | canceled
//	queued → succeeded            (result already cached at submission)
//	queued → canceled             (canceled before a worker picked it up)
//
// Terminal states never transition again; every transition is recorded in
// the job's audit trail.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Transition is one audit-trail entry: when the job entered a state and
// why.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
	Note  string    `json:"note,omitempty"`
}

// Progress is a point-in-time view of a job's per-shard progress, sourced
// from the engine stats the job's execution accumulates into.
type Progress struct {
	// ShardsTotal and ShardsDone count submitted and completed engine
	// shards. Totals grow while adaptive searches submit follow-up probes,
	// but ShardsDone only ever increases.
	ShardsTotal int64 `json:"shards_total"`
	ShardsDone  int64 `json:"shards_done"`
	// ShardsCached counts shards served from the shard memo.
	ShardsCached int64 `json:"shards_cached"`
	// Runs counts completed engine runs (envelope probes each run once;
	// a sweep figure's whole grid is one run, so ShardsTotal holds the
	// figure's full shard count from the first progress event).
	Runs int64 `json:"runs"`
	// Activations counts issued APA activations.
	Activations int64 `json:"activations"`
}

// Status is the externally visible job snapshot: the /v1/jobs/{id}
// response body and the webhook payload.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Cached reports the job completed without executing: its result was
	// already in the response cache at submission.
	Cached   bool       `json:"cached"`
	Progress Progress   `json:"progress"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Audit is the terminal-state audit trail: every transition the job
	// took, in order.
	Audit []Transition `json:"audit"`
}

// Exec is a job's unit of work. The context is cancelled on job
// cancellation or manager shutdown; st is the job's live progress
// accumulator (the same counters the blocking routes keep per-run).
type Exec func(ctx context.Context, st *engine.Stats) (string, error)

// Job is one submitted asynchronous execution. All methods are safe for
// concurrent use.
type Job struct {
	id   string
	kind string

	stats *engine.Stats
	log   *eventLog

	mu       sync.Mutex
	state    State
	cached   bool
	output   string
	errMsg   string
	audit    []Transition
	canceled bool // cancellation requested (maybe before running)
	cancel   context.CancelFunc
	created  time.Time
	started  time.Time
	finished time.Time
	// webhooks holds every completion callback registered for this job:
	// the submission's own spec plus any attached by deduped
	// resubmissions. All fire on the terminal state.
	webhooks []WebhookSpec

	exec Exec
	done chan struct{}
}

func newJob(id, kind string, exec Exec, webhook *WebhookSpec) *Job {
	j := &Job{
		id:      id,
		kind:    kind,
		stats:   new(engine.Stats),
		log:     newEventLog(),
		exec:    exec,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if webhook != nil {
		j.webhooks = append(j.webhooks, *webhook)
	}
	j.transitionLocked(StateQueued, "submitted")
	return j
}

// ID returns the job's content-addressed identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// progress converts the engine snapshot into the job progress view.
func (j *Job) progress() Progress {
	s := j.stats.Snapshot()
	return Progress{
		ShardsTotal:  s.ShardsTotal,
		ShardsDone:   s.ShardsDone,
		ShardsCached: s.ShardsCached,
		Runs:         s.Runs,
		Activations:  s.Activations,
	}
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked snapshots the job; callers hold j.mu.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:       j.id,
		Kind:     j.kind,
		State:    j.state,
		Cached:   j.cached,
		Progress: j.progress(),
		Error:    j.errMsg,
		Created:  j.created,
		Audit:    append([]Transition(nil), j.audit...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Output returns the rendered result once the job has succeeded.
func (j *Job) Output() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.state == StateSucceeded
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// EventsSince exposes the job's event log for SSE subscribers.
func (j *Job) EventsSince(after int64) (evs []Event, changed <-chan struct{}, closed bool) {
	return j.log.since(after)
}

// transitionLocked appends an audit entry and state event. Callers hold
// j.mu (or, in newJob, exclusive ownership).
func (j *Job) transitionLocked(s State, note string) {
	j.state = s
	j.audit = append(j.audit, Transition{State: s, At: time.Now(), Note: note})
	j.log.append("state", map[string]string{"state": string(s), "note": note})
}

// start moves the job to running and installs its cancel hook. It
// returns false when cancellation won the race: the job is already
// terminal and must not execute.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceled || j.state.Terminal() {
		return false
	}
	j.cancel = cancel
	j.started = time.Now()
	j.transitionLocked(StateRunning, "executing")
	return true
}

// finish records the execution outcome, emits the final events and closes
// the stream. A requested cancellation wins over the execution error it
// induced. An already-terminal job (e.g. one Cancel settled while it was
// still queued) is left untouched. settle receives the terminal state and
// runs before the done event and the Done channel publish it (see
// publishLocked).
func (j *Job) finish(output string, err error, settle func(State)) {
	j.mu.Lock()
	if j.state.Terminal() {
		s := j.state
		j.mu.Unlock()
		settle(s)
		return
	}
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case j.canceled:
		j.transitionLocked(StateCanceled, "canceled")
	case err != nil:
		j.errMsg = err.Error()
		j.transitionLocked(StateFailed, err.Error())
	default:
		j.output = output
		j.transitionLocked(StateSucceeded, "completed")
	}
	j.publishLocked(settle)
}

// completeCached finishes a job whose result was already in the response
// cache at submission: no execution, instant terminal state.
func (j *Job) completeCached(output string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.cached = true
	j.output = output
	j.finished = time.Now()
	j.transitionLocked(StateSucceeded, "served from result cache")
	j.finishLocked()
	j.mu.Unlock()
}

// cancelQueued finishes a job that was canceled before any worker picked
// it up; settle runs as in finish.
func (j *Job) cancelQueued(settle func(State)) {
	j.mu.Lock()
	if j.state.Terminal() {
		s := j.state
		j.mu.Unlock()
		settle(s)
		return
	}
	j.finished = time.Now()
	j.transitionLocked(StateCanceled, "canceled before execution")
	j.publishLocked(settle)
}

// publishLocked is entered holding j.mu with the job just made terminal.
// It releases the lock to run settle — the manager's counter update, whose
// lock orders before j.mu — and then publishes the terminal events and
// closes Done, so a watcher woken by either reads settled counters. While
// the lock is released the state is already terminal, so every other
// transition is a no-op.
func (j *Job) publishLocked(settle func(State)) {
	s := j.state
	j.mu.Unlock()
	settle(s)
	j.mu.Lock()
	j.finishLocked()
	j.mu.Unlock()
}

// finishLocked emits the terminal progress/result/done events, ends the
// event stream and releases waiters. The done payload is the full
// terminal Status, so a watcher needs no further status request.
func (j *Job) finishLocked() {
	j.log.append("progress", j.progress())
	if j.state == StateSucceeded {
		j.log.append("result", map[string]string{"output": j.output})
	}
	j.log.append("done", j.statusLocked())
	j.log.close()
	close(j.done)
}

// requestCancel marks the job canceled and interrupts a running
// execution. It returns the state it observed when setting the flag and
// whether the request took effect (false once terminal). The observation
// and the flag set share one critical section, so a caller that sees
// (StateQueued, true) knows no worker will ever start this job — start
// checks the flag under the same lock — and may settle it itself.
func (j *Job) requestCancel() (State, bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		s := j.state
		j.mu.Unlock()
		return s, false
	}
	j.canceled = true
	prior := j.state
	cancel := j.cancel
	j.mu.Unlock()
	if prior == StateRunning && cancel != nil {
		cancel()
	}
	return prior, true
}

// addWebhook registers an additional completion callback on a live job
// (a deduped resubmission carrying a webhook). It reports false when the
// job is already terminal: no future notify will run, so the caller must
// deliver the callback itself.
func (j *Job) addWebhook(spec WebhookSpec) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.webhooks = append(j.webhooks, spec)
	return true
}

// webhookSpecs snapshots the registered completion callbacks.
func (j *Job) webhookSpecs() []WebhookSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]WebhookSpec(nil), j.webhooks...)
}
