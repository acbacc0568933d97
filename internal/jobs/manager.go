// Package jobs is the asynchronous execution tier: expensive operations
// (sweeps, workloads, TRNG draws, scenario grids, envelope searches)
// become submittable, observable, cancelable jobs. A job's identity is
// content-addressed — derived from the same canonical request key the
// blocking routes and the response cache use — so resubmitting identical
// work dedupes onto the live job, and submitting work whose result is
// already cached completes instantly without executing. Execution runs on
// a bounded worker pool backed by a warmpool of reusable module
// instances; progress streams over an append-only per-job event log (the
// SSE feed), and completion can fire a signed webhook. See DESIGN.md §11.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrBusy is returned by Submit when the job queue is full. The HTTP
// layer maps it to 503 + Retry-After, like the blocking routes' shed.
var ErrBusy = errors.New("jobs: queue full")

// ErrNotFound is returned for unknown (or expired) job IDs.
var ErrNotFound = errors.New("jobs: not found")

// Config bounds the manager. Zero values take the documented defaults.
type Config struct {
	// Workers is the executor pool size (default 2). Each worker runs one
	// job at a time; the pool — not the server's inflight slots — is the
	// concurrency bound for the job tier.
	Workers int
	// QueueDepth bounds jobs admitted but not yet executing (default 64);
	// beyond it Submit returns ErrBusy.
	QueueDepth int
	// TTL is how long a terminal job (and its events/result) stays
	// queryable before GC (default 15m).
	TTL time.Duration
	// Poll is the progress monitor's sampling interval (default 100ms).
	// Progress events coalesce to this rate.
	Poll time.Duration
	// MaxSSE caps concurrent event-stream subscribers across all jobs
	// (default 32); beyond it the events route sheds with Retry-After.
	MaxSSE int
	// MaxSSEPerClient caps concurrent event-stream subscribers per client
	// identity (default 8), so one client cannot exhaust the global pool
	// and 503 every other tenant.
	MaxSSEPerClient int
	// Webhook configures completion callbacks (zero value: 3 attempts,
	// 250ms initial backoff, 10s request timeout).
	Webhook WebhookConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.Poll <= 0 {
		c.Poll = 100 * time.Millisecond
	}
	if c.MaxSSE <= 0 {
		c.MaxSSE = 32
	}
	if c.MaxSSEPerClient <= 0 {
		c.MaxSSEPerClient = 8
	}
	c.Webhook = c.Webhook.withDefaults()
	return c
}

// Request is one submission.
type Request struct {
	// ID is the job's content-addressed identity: kind + the canonical
	// request cache key. Two requests with the same ID are the same work.
	ID string
	// Kind is the request family ("sweep", "workload", "trng", "scenario").
	Kind string
	// Exec produces the rendered result. Ignored when Cached is set.
	Exec Exec
	// Cached, when non-nil, is the already-cached result for this ID: the
	// job completes instantly without touching the queue.
	Cached *string
	// Webhook, when non-nil, receives the signed terminal Status.
	Webhook *WebhookSpec
}

// Metrics is a point-in-time counter snapshot for /metrics.
type Metrics struct {
	Submitted int64 // submissions accepted (including dedupes onto live jobs)
	Deduped   int64 // submissions that joined an existing job
	Queued    int64 // jobs currently waiting for a worker
	Running   int64 // jobs currently executing
	Completed int64 // jobs that reached succeeded
	Failed    int64 // jobs that reached failed
	Canceled  int64 // jobs that reached canceled
	CacheHits int64 // submissions completed instantly from the result cache

	SSEConnections    int64 // live event-stream subscribers
	SSERejected       int64 // subscribers shed at either connection cap (client + global)
	SSERejectedClient int64 // subscribers shed at their per-client cap
	SSERejectedGlobal int64 // subscribers shed at the global ceiling

	WebhookDeliveries int64 // callbacks acknowledged 2xx
	WebhookRetries    int64 // delivery attempts after the first
	WebhookFailures   int64 // callbacks abandoned after max attempts
}

// Manager owns the job store, the executor pool and the GC loop.
type Manager struct {
	cfg     Config
	webhook *webhookSender

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	queue  chan *Job
	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// whCtx governs webhook deliveries. It is separate from base so
	// Close can cancel running jobs yet still let in-flight terminal
	// callbacks (bounded by attempts × timeout + backoff) complete.
	whCtx    context.Context
	whCancel context.CancelFunc

	counters struct {
		submitted, deduped                   int64
		completed, failed, canceled          int64
		cacheHits                            int64
		queued, running                      int64
		sseConnections                       int64
		sseRejectedClient, sseRejectedGlobal int64
	}
	// sseByClient tracks live event-stream subscribers per client
	// identity (the per-client connection cap's state).
	sseByClient map[string]int
}

// NewManager starts the executor pool and GC loop.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	whCtx, whCancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		webhook:     newWebhookSender(cfg.Webhook),
		jobs:        make(map[string]*Job),
		sseByClient: make(map[string]int),
		queue:       make(chan *Job, cfg.QueueDepth),
		base:        base,
		cancel:      cancel,
		whCtx:       whCtx,
		whCancel:    whCancel,
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.gcLoop()
	return m
}

// Close cancels running jobs, stops the workers and the GC loop, and
// waits for in-flight webhook deliveries to settle. Deliveries run under
// their own context (not the one Close cancels), so terminal callbacks
// racing shutdown still complete — bounded by the webhook attempt
// budget, backoff and per-request timeout.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
	m.webhook.wait()
	m.whCancel()
}

// Submit registers the request. When a live or succeeded job already
// exists under the same ID, it is returned with existing=true (failed and
// canceled jobs are replaced — a resubmission is a retry). When the
// request carries a cached result, the job completes instantly.
func (m *Manager) Submit(req Request) (*Job, bool, error) {
	if req.ID == "" || req.Kind == "" {
		return nil, false, fmt.Errorf("jobs: submission needs an ID and kind")
	}
	if req.Cached == nil && req.Exec == nil {
		return nil, false, fmt.Errorf("jobs: submission needs an Exec")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, fmt.Errorf("jobs: manager closed")
	}
	if prev, ok := m.jobs[req.ID]; ok {
		if s := prev.State(); s != StateFailed && s != StateCanceled {
			m.counters.submitted++
			m.counters.deduped++
			// A deduped resubmission's webhook must still fire: attach it
			// to the live job, or — when the job is already terminal, so
			// no future notify will run — deliver its status now.
			if req.Webhook != nil && !prev.addWebhook(*req.Webhook) {
				m.webhook.deliver(m.whCtx, *req.Webhook, prev.Status())
			}
			return prev, true, nil
		}
	}
	j := newJob(req.ID, req.Kind, req.Exec, req.Webhook)
	if req.Cached != nil {
		m.counters.submitted++
		m.counters.cacheHits++
		m.counters.completed++
		m.jobs[req.ID] = j
		j.completeCached(*req.Cached)
		m.notify(j)
		return j, false, nil
	}
	select {
	case m.queue <- j:
	default:
		return nil, false, ErrBusy
	}
	m.counters.submitted++
	m.counters.queued++
	m.jobs[req.ID] = j
	return j, false, nil
}

// Get returns the job for an ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs returns a status snapshot of every stored job, newest first.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel requests cancellation. Queued jobs finish as canceled
// immediately; running jobs have their context cancelled and settle
// through the worker. Cancel of a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	j, err := m.Get(id)
	if err != nil {
		return Status{}, err
	}
	// requestCancel observes the state and sets the canceled flag in one
	// critical section: (StateQueued, true) guarantees no worker will
	// start this job (start checks the flag under the same lock), so
	// settling it here cannot race a concurrent finish. Deciding from a
	// separate State() read would allow a worker to start the job in
	// between, double-settling it when the execution returned.
	if prior, ok := j.requestCancel(); ok && prior == StateQueued {
		// The worker that eventually drains the queue entry sees the
		// canceled flag and skips it; settle the job now so watchers and
		// webhooks don't wait for that drain.
		j.cancelQueued(func(State) {
			m.mu.Lock()
			m.counters.queued--
			m.counters.canceled++
			m.mu.Unlock()
		})
		m.notify(j)
	}
	return j.Status(), nil
}

// Wait blocks until the job is terminal or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, err := m.Get(id)
	if err != nil {
		return Status{}, err
	}
	// An already-terminal job wins over an already-done context.
	select {
	case <-j.Done():
		return j.Status(), nil
	default:
	}
	select {
	case <-j.Done():
		return j.Status(), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// AcquireSSE reserves an event-stream slot for the given client identity;
// release returns it. ok=false means a connection cap is reached (the
// caller sheds with Retry-After): reason is "client" when the client sits
// at its per-client cap — the global pool may still have room for other
// tenants — and "global" when the whole pool is exhausted.
func (m *Manager) AcquireSSE(client string) (release func(), reason string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sseByClient[client] >= m.cfg.MaxSSEPerClient {
		m.counters.sseRejectedClient++
		return nil, "client", false
	}
	if m.counters.sseConnections >= int64(m.cfg.MaxSSE) {
		m.counters.sseRejectedGlobal++
		return nil, "global", false
	}
	m.counters.sseConnections++
	m.sseByClient[client]++
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.counters.sseConnections--
			if m.sseByClient[client]--; m.sseByClient[client] <= 0 {
				delete(m.sseByClient, client)
			}
			m.mu.Unlock()
		})
	}, "", true
}

// Metrics snapshots the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	c := m.counters
	m.mu.Unlock()
	wd, wr, wf := m.webhook.counts()
	return Metrics{
		Submitted:         c.submitted,
		Deduped:           c.deduped,
		Queued:            c.queued,
		Running:           c.running,
		Completed:         c.completed,
		Failed:            c.failed,
		Canceled:          c.canceled,
		CacheHits:         c.cacheHits,
		SSEConnections:    c.sseConnections,
		SSERejected:       c.sseRejectedClient + c.sseRejectedGlobal,
		SSERejectedClient: c.sseRejectedClient,
		SSERejectedGlobal: c.sseRejectedGlobal,
		WebhookDeliveries: wd,
		WebhookRetries:    wr,
		WebhookFailures:   wf,
	}
}

// SweepExpired drops terminal jobs whose TTL elapsed before now,
// returning how many were dropped. The GC loop calls it periodically;
// tests call it directly.
func (m *Manager) SweepExpired(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, j := range m.jobs {
		st := j.Status()
		if st.State.Terminal() && st.Finished != nil && now.Sub(*st.Finished) > m.cfg.TTL {
			delete(m.jobs, id)
			n++
		}
	}
	return n
}

// worker drains the queue, executing one job at a time.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.base.Done():
			return
		case j := <-m.queue:
			m.execute(j)
		}
	}
}

// execute runs one job: start (unless cancellation won), monitor progress
// into the event log, run the exec, settle counters and fire the webhook.
func (m *Manager) execute(j *Job) {
	ctx, cancel := context.WithCancel(m.base)
	defer cancel()
	if !j.start(cancel) {
		// Canceled while queued; Cancel already settled it.
		return
	}
	m.mu.Lock()
	m.counters.queued--
	m.counters.running++
	m.mu.Unlock()

	stopMonitor := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		m.monitor(j, stopMonitor)
	}()

	out, err := j.exec(ctx, j.stats)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	close(stopMonitor)
	<-monitorDone
	j.finish(out, err, func(s State) {
		m.mu.Lock()
		m.counters.running--
		switch s {
		case StateSucceeded:
			m.counters.completed++
		case StateCanceled:
			m.counters.canceled++
		default:
			m.counters.failed++
		}
		m.mu.Unlock()
	})
	m.notify(j)
}

// monitor polls the job's stats at the configured interval and appends a
// progress event whenever completed-shard work advanced, coalescing
// between ticks. The terminal progress event is emitted by finish.
func (m *Manager) monitor(j *Job, stop <-chan struct{}) {
	t := time.NewTicker(m.cfg.Poll)
	defer t.Stop()
	var last Progress
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p := j.progress()
			if p != last {
				j.log.append("progress", p)
				last = p
			}
		}
	}
}

// notify dispatches the terminal status to every webhook the job
// registered (its own submission's plus any attached by deduped
// resubmissions).
func (m *Manager) notify(j *Job) {
	st := j.Status()
	for _, spec := range j.webhookSpecs() {
		m.webhook.deliver(m.whCtx, spec, st)
	}
}

// gcLoop periodically sweeps expired terminal jobs.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	interval := m.cfg.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.base.Done():
			return
		case now := <-t.C:
			m.SweepExpired(now)
		}
	}
}
