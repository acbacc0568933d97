// Package server is the serving layer of the reproduction: an HTTP/JSON
// batch API over the experiment facade, fronted by the content-addressed
// result cache (internal/cache) at two levels — whole-request responses
// and per-shard engine results — with singleflight request coalescing and
// bounded in-flight concurrency with backpressure.
//
// Endpoints:
//
//	POST /v1/sweep     one characterization figure/table (cmd/simra-char's surface)
//	POST /v1/workload  a fleet-wide workload run (cmd/simra-work's surface)
//	POST /v1/trng      health-screened random bytes (cmd/simra-trng's surface)
//	POST /v1/scenario  an operating-envelope scan or envelope search (cmd/simra-scan's surface)
//	POST /v1/campaign  a fleet-design campaign over Table-2 module mixes (cmd/simra-campaign's surface)
//	POST /v1/batch     several of the above in one round trip
//	POST /v1/jobs      one of the above on the async job tier
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus-style counters
//
// The five request families are rows of one table (families.go): each
// row drives its blocking route, its /v1/batch items and /v1/jobs
// envelopes ({"kind":…,"<kind>":{…}}), its OpenAPI entry and its
// /metrics labels.
//
// Malformed request bodies return 400; well-formed requests naming
// unknown figures, workloads, modules, ops or axes return 422 with an
// error listing the valid options.
//
// Responses are JSON envelopes (Response); appending ?raw=1 returns the
// rendered output bytes alone. Workload responses equal cmd/simra-work's
// stdout byte for byte; sweep responses equal the rendered figure table
// (what simra-char prints before its text-mode timing/engine lines);
// TRNG responses equal simra-trng's hex dump — the properties the CI e2e
// job asserts against the committed goldens. Because every simulation
// result is bit-identical for any worker count, cached, coalesced and
// freshly computed responses are all byte-identical too (DESIGN.md §9).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/cluster"
	"repro/internal/colenc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// DefaultCacheBytes bounds the shared result cache when Config.CacheBytes
// is zero.
const DefaultCacheBytes = 64 << 20

// Connection timeouts of ListenAndServe: a client gets readHeaderTimeout
// to send its request headers and a kept-alive connection is closed after
// idleTimeout without a request, so stalled or abandoned connections
// cannot pin server resources. Neither bounds a body read, a computation
// or a streamed (SSE) response.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Config parameterizes a serving instance. The zero value is usable.
type Config struct {
	// Addr is the listen address for ListenAndServe (default
	// "127.0.0.1:8077").
	Addr string
	// CacheBytes bounds two stores, each on its own: the node's result
	// cache (responses + engine shards, shared by every worker group) and
	// the hosted shared tier, which holds only what peers PUT into it. An
	// entry counts its value's bytes plus cache.EntryOverhead
	// (0 = DefaultCacheBytes, negative = unbounded).
	CacheBytes int64
	// MaxInflight bounds concurrently executing engine runs (0 =
	// GOMAXPROCS). Identical concurrent requests coalesce onto one run
	// and consume one slot.
	MaxInflight int
	// MaxQueue bounds executions waiting for a slot; beyond it requests
	// are shed with 503 + Retry-After (0 = 64, negative = no queue).
	MaxQueue int
	// Workers bounds each engine run's shard parallelism (0 = GOMAXPROCS).
	// It never affects response bytes.
	Workers int
	// JobWorkers bounds the async job tier's executor pool (0 = 2). Jobs
	// don't claim MaxInflight slots: this pool is their concurrency bound.
	JobWorkers int
	// JobQueue bounds admitted-but-not-executing jobs (0 = 64); beyond it
	// submissions are shed with 503 + Retry-After.
	JobQueue int
	// JobTTL is how long a terminal job stays queryable (0 = 15m).
	JobTTL time.Duration
	// JobPoll is the progress monitor's sampling interval (0 = 100ms);
	// SSE progress events coalesce to this rate.
	JobPoll time.Duration
	// MaxSSE caps concurrent job event-stream subscribers (0 = 32).
	MaxSSE int
	// MaxSSEPerClient caps concurrent job event-stream subscribers per
	// client identity (0 = 8) — the authenticated bearer client, or the
	// remote address when client auth is off — so one client cannot
	// exhaust the global subscriber pool.
	MaxSSEPerClient int
	// WarmpoolPerKey caps idle warm module instances kept per module
	// identity for job executions (0 = 4).
	WarmpoolPerKey int

	// Groups is the number of in-process worker groups shard execution
	// fans out over (each with its own module pool, all sharing the
	// node's result cache). 0 keeps single-node in-process execution —
	// no coordinator at all — unless Peers makes one necessary.
	Groups int
	// Peers are base URLs of remote worker nodes (e.g.
	// "http://10.0.0.2:8077"); shards rendezvous-hash across the local
	// group(s) and every peer. Results are byte-identical for every fleet
	// composition.
	Peers []string
	// CachePeer, when set, is the base URL of the node hosting the fleet's
	// shared cache tier; this node's misses consult it and its results are
	// written through to it. Typically the coordinator's URL on workers.
	CachePeer string
	// Backend, when non-nil, is the shared cache tier directly (tests
	// inject a cache.MemBackend two Servers share). Takes precedence over
	// CachePeer. When neither is set and the node is part of a fleet
	// (Groups > 1 or Peers non-empty), the node hosts its own in-process
	// backend: it serves it, with its own results as a fallback, at
	// /v1/internal/cache/{key}, and reads it on a miss, but never copies
	// its own results into it.
	Backend cache.Backend
	// ClusterToken authenticates fleet-internal routes (/v1/internal/*)
	// and outgoing peer calls. Empty leaves internal routes open (dev
	// fleets on a trusted network).
	ClusterToken string
	// AuthTokens maps bearer tokens to client identities. Empty disables
	// client auth: every request is the "anonymous" client.
	AuthTokens map[string]string
	// RatePerSec, when > 0, rate-limits each client with a token bucket
	// shared through the cache tier, so the limit holds fleet-wide.
	RatePerSec float64
	// RateBurst is the bucket capacity (0 = max(1, ceil(RatePerSec))).
	RateBurst int
	// AuditLog, when non-nil, receives one JSON line per request
	// (append-only; writes are serialized).
	AuditLog io.Writer
}

// withDefaults resolves zero-value fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8077"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded for cache.New
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// errBusy sheds load when the execution queue is full.
var errBusy = errors.New("server: execution queue full")

// kindCounters tracks one request family.
type kindCounters struct {
	requests   atomic.Int64
	executions atomic.Int64
	errors     atomic.Int64
}

// Server serves the experiment facade over HTTP. Create with New.
type Server struct {
	cfg   Config
	store *cache.Cache
	// tier layers store over the fleet's shared cache backend (a
	// transparent view of store on a single node): the response cache
	// every request family goes through.
	tier *cache.Tiered
	// hosted is this node's in-process shared-tier store, served at
	// /v1/internal/cache/{key} so other nodes can use this node as their
	// CachePeer.
	hosted *cache.MemBackend
	// sweepMemo and workloadMemo are typed views of store used as engine
	// shard memos, so shard results are shared across requests that only
	// partially overlap (e.g. two figures sweeping the same cell, or a
	// campaign warming later workload requests). The worker groups fill
	// the same entries, charged the same bytes.
	sweepMemo    engine.Memo[[]core.GroupOutcome]
	workloadMemo engine.Memo[[]workload.Result]

	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	busy     atomic.Int64
	counters map[string]*kindCounters
	start    time.Time

	// jobs is the async tier (POST /v1/jobs …); pool is its warmpool of
	// reusable module instances.
	jobs *jobs.Manager
	pool *jobs.Warmpool

	// groups are the in-process worker groups; worker (= groups[0]) serves
	// /v1/internal/shard; coord fans shards across groups and peers (nil on
	// a single node — families then execute shards in-process, exactly the
	// pre-cluster path).
	groups []*cluster.Group
	worker *cluster.Group
	coord  *cluster.Coordinator
	peers  []*cluster.Peer
	// shardSlots bounds concurrent fleet-internal shard executions
	// (independent of MaxInflight, which bounds public-request runs).
	shardSlots chan struct{}

	// limiter enforces the per-client rate limit; auditMu serializes
	// audit-log lines; rateLimited counts 429s.
	limiter     *rateLimiter
	auditMu     sync.Mutex
	rateLimited atomic.Int64
}

// New builds a serving instance.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	store := cache.New(cfg.CacheBytes)
	s := &Server{
		cfg:          cfg,
		store:        store,
		sweepMemo:    cache.NewTyped(store, cluster.CoreBytes),
		workloadMemo: cache.NewTyped(store, cluster.WorkloadBytes),
		slots:        make(chan struct{}, cfg.MaxInflight),
		counters:     make(map[string]*kindCounters, len(kinds)),
		start:        time.Now(),
	}
	for _, k := range kinds {
		s.counters[k] = &kindCounters{}
	}
	s.pool = jobs.NewWarmpool(cfg.WarmpoolPerKey)
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:         cfg.JobWorkers,
		QueueDepth:      cfg.JobQueue,
		TTL:             cfg.JobTTL,
		Poll:            cfg.JobPoll,
		MaxSSE:          cfg.MaxSSE,
		MaxSSEPerClient: cfg.MaxSSEPerClient,
	})

	// Cluster wiring. remote is the fleet's shared tier this node reads on
	// a miss, by priority: an injected Backend (tests), a CachePeer
	// client, or — when this node is part of a fleet — its own hosted
	// in-process backend, bounded like the local tier by CacheBytes.
	// write takes the node's fresh results: an injected or peer tier, but
	// never a tier the node hosts, because GET /v1/internal/cache/{key}
	// serves the node's own results from its store. A lone node gets
	// neither: tier stays a transparent view of store.
	s.hosted = cache.NewBoundedMemBackend(cfg.CacheBytes)
	fleetNode := cfg.Groups > 1 || len(cfg.Peers) > 0
	var remote, write cache.Backend
	switch {
	case cfg.Backend != nil:
		remote, write = cfg.Backend, cfg.Backend
	case cfg.CachePeer != "":
		rc := cluster.NewRemoteCache(cfg.CachePeer, cfg.ClusterToken)
		// Remote-tier failures degrade to misses by contract, but not
		// silently: each one lands in the audit log (and the error counter
		// feeds simra_cache_remote_errors_total), so a down or
		// misconfigured cache host is visible instead of looking like a
		// cold cache.
		rc.OnError = func(op string, err error) {
			s.auditWarn("cache_remote_error", fmt.Sprintf("%s %s: %v", op, cfg.CachePeer, err))
		}
		remote, write = rc, rc
	case fleetNode:
		remote = s.hosted
	}
	s.tier = cache.NewTiered(store, remote, write)

	// Worker groups all use the server's store, so the node holds each
	// shard once; group-0 shares the server's warmpool and further groups
	// get their own.
	n := cfg.Groups
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		gpool := dram.ModulePool(s.pool)
		if i > 0 {
			gpool = jobs.NewWarmpool(cfg.WarmpoolPerKey)
		}
		s.groups = append(s.groups, cluster.NewGroup(fmt.Sprintf("group-%d", i), store, remote, write, gpool))
	}
	s.worker = s.groups[0]
	s.shardSlots = make(chan struct{}, cfg.MaxInflight)

	// A coordinator exists only when there is a fleet to coordinate
	// (Groups >= 1 explicitly, or any peer). Groups == 0 with no peers
	// keeps the families' in-process shard path.
	if cfg.Groups >= 1 || len(cfg.Peers) > 0 {
		workers := make([]cluster.Worker, 0, len(s.groups)+len(cfg.Peers))
		for _, g := range s.groups {
			workers = append(workers, g)
		}
		for _, p := range cfg.Peers {
			pe := cluster.NewPeer(p, cfg.ClusterToken)
			s.peers = append(s.peers, pe)
			workers = append(workers, pe)
		}
		s.coord = cluster.New(s.worker, workers...)
	}

	if cfg.RatePerSec > 0 {
		// Buckets are written on every request, so without an injected or
		// peer tier they live in the writable hosted one.
		lstore := write
		if lstore == nil {
			lstore = s.hosted
		}
		s.limiter = newRateLimiter(lstore, cfg.RatePerSec, cfg.RateBurst)
	}
	return s
}

// dispatch returns the engine dispatcher for an execution started under
// ctx: nil on a single node (families run shards in-process), otherwise
// the coordinator stamped with the originating request's ID so remote
// workers' audit trails tie back to it. Detached execution contexts
// preserve values, so coalesced and job executions resolve correctly.
func (s *Server) dispatch(ctx context.Context) engine.Dispatcher {
	if s.coord == nil {
		return nil
	}
	return s.coord.WithRequestID(RequestIDFrom(ctx))
}

// Close stops the job tier: running jobs are cancelled, the executor
// workers and GC loop exit, and pending webhook deliveries settle.
func (s *Server) Close() { s.jobs.Close() }

// JobMetrics exposes the job tier's counters (tests assert them; /metrics
// renders them).
func (s *Server) JobMetrics() jobs.Metrics { return s.jobs.Metrics() }

// CacheStats exposes the cache tier's counters (local store plus the
// remote backend's hit/miss counts when one is configured).
func (s *Server) CacheStats() cache.Stats { return s.tier.Stats() }

// ClusterStats exposes the coordinator's per-worker dispatch counters
// (zero-valued on a single node).
func (s *Server) ClusterStats() cluster.Stats {
	if s.coord == nil {
		return cluster.Stats{Dispatched: map[string]int64{}}
	}
	return s.coord.Stats()
}

// Executions returns how many engine runs the given request kind has
// actually executed (coalesced and cached requests excluded): the counter
// the coalescing tests and the CI e2e job assert.
func (s *Server) Executions(kind string) int64 {
	c, ok := s.counters[kind]
	if !ok {
		return 0
	}
	return c.executions.Load()
}

// acquire claims an execution slot, queueing up to MaxQueue waiters and
// shedding load with errBusy beyond that. The returned release function
// must be called when the execution finishes.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	claim := func() func() {
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return claim(), nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.busy.Add(1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return claim(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// respond runs one request through the response cache: a hit returns the
// stored bytes, concurrent identical requests coalesce onto a single
// execution, and a fresh execution claims an in-flight slot first. The
// execution runs on a context detached from the initiating request:
// coalesced waiters share it, so one client's disconnect must not fail
// the others (or waste the nearly finished result). The returned Cached
// flag reports whether this call avoided executing. The pipeline runs
// without a progress accumulator or warmpool — neither affects result
// bytes, so the blocking response, the job-tier result and the CLI stdout
// stay byte-identical (the invariance suites assert it).
//
// The shared store is also the job tier's, and a job execution runs
// under its job's cancelable context — so a blocking request can
// coalesce onto an execution that a DELETE /v1/jobs/{id} then kills.
// That cancellation is the job's, not this caller's: when a coalesced
// wait ends in context.Canceled while our own caller is still live, we
// re-enter the store and compute (detached, as always) ourselves.
func (s *Server) respond(ctx context.Context, kind string, key cache.Key, exec kindExec) (Response, error) {
	s.counters[kind].requests.Add(1)
	detached := context.WithoutCancel(ctx)
	var (
		v        any
		err      error
		executed bool
	)
	for {
		executed = false
		v, err = s.tier.Do(key, func() (any, int64, error) {
			executed = true
			release, err := s.acquire(detached)
			if err != nil {
				return nil, 0, err
			}
			defer release()
			s.counters[kind].executions.Add(1)
			out, err := exec(detached, nil, nil)
			if err != nil {
				return nil, 0, err
			}
			return out, int64(len(out)), nil
		})
		if err != nil && !executed && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// Inherited from a canceled job execution we coalesced onto.
			// Our own execution can't be canceled (it runs detached), so
			// retrying terminates: either we hit the cache, coalesce onto
			// a live execution, or become the executor ourselves.
			continue
		}
		break
	}
	if err != nil {
		s.counters[kind].errors.Add(1)
		return Response{Kind: kind, Key: cache.KeyString(key)}, err
	}
	return Response{
		Kind:   kind,
		Key:    cache.KeyString(key),
		Cached: !executed,
		Output: v.(string),
	}, nil
}

// decodeJSON strictly parses the request body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeResponse renders one Response: the columnar stream when the
// output carries the colenc magic, the JSON envelope otherwise, or the
// raw output bytes under ?raw=1.
func writeResponse(w http.ResponseWriter, r *http.Request, resp Response) {
	if strings.HasPrefix(resp.Output, colenc.Magic) {
		writeColumnar(w, r, resp.Output, map[string]string{
			"X-Simra-Key":    resp.Key,
			"X-Simra-Cached": fmt.Sprint(resp.Cached),
		})
		return
	}
	if raw := r.URL.Query().Get("raw"); raw == "1" || raw == "true" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Simra-Key", resp.Key)
		w.Header().Set("X-Simra-Cached", fmt.Sprint(resp.Cached))
		io.WriteString(w, resp.Output)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// writeJSON renders v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// post guards the mutation endpoints.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, r, fmt.Errorf("%s not allowed; POST only", r.Method), http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// endpoint builds a family's blocking POST /v1/<kind> handler: a
// malformed body is 400, a well-formed body that fails normalization
// (unknown figure/workload/op/axis names, out-of-range values) is 422 with
// an error listing the valid options, and an execution failure is 500.
// A family with a format field (format != nil) defaults an empty body
// format from the Accept header before normalization — content
// negotiation never overrides an explicit body format.
func endpoint[Q request[Q]](s *Server, kind string, format func(*Q) *string, exec pipeline[Q]) http.HandlerFunc {
	return post(func(w http.ResponseWriter, r *http.Request) {
		var q Q
		if err := decodeJSON(r, &q); err != nil {
			writeError(w, r, err, http.StatusBadRequest)
			return
		}
		if format != nil {
			acceptFormat(r, format(&q))
		}
		q, err := q.normalize()
		if err != nil {
			writeError(w, r, err, http.StatusUnprocessableEntity)
			return
		}
		resp, err := s.respond(r.Context(), kind, q.key(), func(ctx context.Context, st *engine.Stats, pool dram.ModulePool) (string, error) {
			return exec(s, ctx, q, st, pool)
		})
		if err != nil {
			writeError(w, r, err, http.StatusInternalServerError)
			return
		}
		writeResponse(w, r, resp)
	})
}

// Handler returns the serving mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Registration walks the same route table OpenAPI() documents — the
	// served surface and the published spec cannot drift apart.
	for _, rt := range s.routes() {
		pattern := rt.Pattern
		if pattern == "" {
			// Bare path: the handler enforces the method itself, keeping
			// the 405 error envelope instead of the mux's plain rejection.
			pattern = rt.Path
		}
		mux.HandleFunc(pattern, rt.handler)
	}
	// The production middleware chain, outermost first: request-ID
	// injection, audit logging, auth, rate limiting. Every route — blocking,
	// batch, jobs, SSE, internal — passes through the whole chain.
	return requestID(s.audit(s.auth(s.rateLimit(mux))))
}

// handleBatch is POST /v1/batch: each item runs through the same cache +
// coalescing path as its dedicated endpoint, failures reported in-band.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if err := decodeJSON(r, &batch); err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	s.counters["batch"].requests.Add(1)
	out := BatchResponse{Responses: make([]Response, 0, len(batch.Requests))}
	for _, item := range batch.Requests {
		out.Responses = append(out.Responses, s.runBatchItem(r.Context(), item))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// runBatchItem routes one batch item through its family's row; failures
// are reported in-band so sibling items still execute.
func (s *Server) runBatchItem(ctx context.Context, item BatchItem) Response {
	fail := func(err error) Response {
		return Response{Kind: item.Kind, Error: err.Error()}
	}
	f, err := envelopeFamily(item.Kind, &item, func(f *family) slot[BatchItem] { return f.item })
	if err != nil {
		return fail(err)
	}
	// The columnar encoding is binary and the batch envelope is JSON:
	// riding a JSON string would mangle the bytes, so batch items refuse
	// it in-band and point at the dedicated endpoints.
	if f.itemFormat(&item) == charexp.FormatColumnar {
		return fail(fmt.Errorf(
			"columnar format is not available on /v1/batch (binary output cannot ride the JSON envelope); use POST /v1/%s or a job; valid: text, csv", item.Kind))
	}
	key, exec, err := f.item.bind(s, &item)
	if err != nil {
		return fail(err)
	}
	resp, err := s.respond(ctx, f.kind, key, exec)
	if err != nil {
		return fail(err)
	}
	return resp
}

// writeMetrics renders the Prometheus-style counter page.
func (s *Server) writeMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "simra_serve_uptime_seconds %.0f\n", time.Since(s.start).Seconds())
	for _, k := range kinds {
		c := s.counters[k]
		fmt.Fprintf(&b, "simra_serve_requests_total{kind=%q} %d\n", k, c.requests.Load())
		fmt.Fprintf(&b, "simra_serve_executions_total{kind=%q} %d\n", k, c.executions.Load())
		fmt.Fprintf(&b, "simra_serve_errors_total{kind=%q} %d\n", k, c.errors.Load())
	}
	fmt.Fprintf(&b, "simra_serve_inflight %d\n", s.inflight.Load())
	fmt.Fprintf(&b, "simra_serve_max_inflight %d\n", s.cfg.MaxInflight)
	fmt.Fprintf(&b, "simra_serve_queued %d\n", s.queued.Load())
	fmt.Fprintf(&b, "simra_serve_max_queue %d\n", s.cfg.MaxQueue)
	fmt.Fprintf(&b, "simra_serve_shed_total %d\n", s.busy.Load())
	jm := s.jobs.Metrics()
	fmt.Fprintf(&b, "simra_jobs_submitted_total %d\n", jm.Submitted)
	fmt.Fprintf(&b, "simra_jobs_deduped_total %d\n", jm.Deduped)
	fmt.Fprintf(&b, "simra_jobs_cache_hits_total %d\n", jm.CacheHits)
	fmt.Fprintf(&b, "simra_jobs_queued %d\n", jm.Queued)
	fmt.Fprintf(&b, "simra_jobs_running %d\n", jm.Running)
	fmt.Fprintf(&b, "simra_jobs_completed_total %d\n", jm.Completed)
	fmt.Fprintf(&b, "simra_jobs_failed_total %d\n", jm.Failed)
	fmt.Fprintf(&b, "simra_jobs_canceled_total %d\n", jm.Canceled)
	fmt.Fprintf(&b, "simra_jobs_sse_connections %d\n", jm.SSEConnections)
	fmt.Fprintf(&b, "simra_jobs_sse_rejected_total{reason=\"client\"} %d\n", jm.SSERejectedClient)
	fmt.Fprintf(&b, "simra_jobs_sse_rejected_total{reason=\"global\"} %d\n", jm.SSERejectedGlobal)
	fmt.Fprintf(&b, "simra_jobs_webhook_deliveries_total %d\n", jm.WebhookDeliveries)
	fmt.Fprintf(&b, "simra_jobs_webhook_retries_total %d\n", jm.WebhookRetries)
	fmt.Fprintf(&b, "simra_jobs_webhook_failures_total %d\n", jm.WebhookFailures)
	ws := s.pool.Stats()
	fmt.Fprintf(&b, "simra_warmpool_hits_total %d\n", ws.Hits)
	fmt.Fprintf(&b, "simra_warmpool_misses_total %d\n", ws.Misses)
	fmt.Fprintf(&b, "simra_warmpool_discarded_total %d\n", ws.Discarded)
	fmt.Fprintf(&b, "simra_warmpool_idle %d\n", ws.Idle)
	cs := s.tier.Stats()
	fmt.Fprintf(&b, "simra_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(&b, "simra_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(&b, "simra_cache_coalesced_total %d\n", cs.Coalesced)
	fmt.Fprintf(&b, "simra_cache_executions_total %d\n", cs.Executions)
	fmt.Fprintf(&b, "simra_cache_errors_total %d\n", cs.Errors)
	fmt.Fprintf(&b, "simra_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(&b, "simra_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(&b, "simra_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(&b, "simra_cache_capacity_bytes %d\n", cs.Capacity)
	fmt.Fprintf(&b, "simra_cache_remote_hits_total %d\n", cs.RemoteHits)
	fmt.Fprintf(&b, "simra_cache_remote_misses_total %d\n", cs.RemoteMisses)
	fmt.Fprintf(&b, "simra_cache_remote_errors_total %d\n", cs.RemoteErrors)
	hs := s.hosted.Stats()
	fmt.Fprintf(&b, "simra_cache_hosted_entries %d\n", hs.Entries)
	fmt.Fprintf(&b, "simra_cache_hosted_bytes %d\n", hs.Bytes)
	fmt.Fprintf(&b, "simra_cache_hosted_evictions_total %d\n", hs.Evictions)
	fmt.Fprintf(&b, "simra_serve_rate_limited_total %d\n", s.rateLimited.Load())
	rs := dram.Registry()
	fmt.Fprintf(&b, "simra_dram_table_sets %d\n", rs.Sets)
	fmt.Fprintf(&b, "simra_dram_table_bytes %d\n", rs.Bytes)
	fmt.Fprintf(&b, "simra_dram_table_probation_bytes %d\n", rs.ProbationBytes)
	fmt.Fprintf(&b, "simra_dram_table_budget_bytes %d\n", rs.Budget)
	fmt.Fprintf(&b, "simra_dram_table_evictions_total %d\n", rs.Evictions)
	fmt.Fprintf(&b, "simra_dram_table_lookup_hits_total %d\n", rs.LookupHits)
	fmt.Fprintf(&b, "simra_dram_table_lookup_misses_total %d\n", rs.LookupMisses)
	fmt.Fprintf(&b, "simra_dram_table_promotions_total %d\n", rs.Promotions)
	fmt.Fprintf(&b, "simra_dram_table_demotions_total %d\n", rs.Demotions)
	fmt.Fprintf(&b, "simra_dram_table_set_derivations_total %d\n", rs.SetDerivations)
	fmt.Fprintf(&b, "simra_dram_table_row_derivations_total %d\n", rs.RowDerivations)
	for _, g := range s.groups {
		gs := g.Stats()
		fmt.Fprintf(&b, "simra_cluster_group_requests_total{group=%q} %d\n", g.Name(), gs.Requests)
		fmt.Fprintf(&b, "simra_cluster_group_executions_total{group=%q} %d\n", g.Name(), gs.Executions)
	}
	if s.coord != nil {
		st := s.coord.Stats()
		for _, name := range s.coord.Workers() {
			fmt.Fprintf(&b, "simra_cluster_dispatched_total{worker=%q} %d\n", name, st.Dispatched[name])
		}
		fmt.Fprintf(&b, "simra_cluster_fallbacks_total %d\n", st.Fallbacks)
	}
	io.WriteString(w, b.String())
}

// ListenAndServe serves on cfg.Addr until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 10 s to finish). ready,
// if non-nil, receives the bound address once listening — tests and
// scripts use it instead of polling.
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- string) error {
	defer s.Close()
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-done // http.ErrServerClosed
		return nil
	case err := <-done:
		return err
	}
}
