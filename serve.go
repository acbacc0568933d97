package simra

import (
	"context"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/server"
)

// Serving-layer types (DESIGN.md §9): the HTTP/JSON batch API over the
// experiment facade, fronted by the content-addressed result cache with
// request coalescing and bounded in-flight concurrency.
type (
	// ServeConfig parameterizes a serving instance (listen address, cache
	// budget, in-flight and queue bounds, engine workers).
	ServeConfig = server.Config
	// ServeServer is a serving instance; see NewServer.
	ServeServer = server.Server
	// CacheStats is a snapshot of the result cache's counters (hits,
	// misses, coalesced and executed requests, evictions, resident bytes).
	CacheStats = cache.Stats
	// SweepRequest, WorkloadRequest, TRNGRequest, ScenarioRequest,
	// CampaignRequest and BatchRequest are the serving API's request
	// bodies (one per request family, plus the batch); ServeResponse is
	// the JSON envelope.
	SweepRequest    = server.SweepRequest
	WorkloadRequest = server.WorkloadRequest
	TRNGRequest     = server.TRNGRequest
	ScenarioRequest = server.ScenarioRequest
	CampaignRequest = server.CampaignRequest
	BatchRequest    = server.BatchRequest
	ServeResponse   = server.Response
	// JobRequest submits one request family for asynchronous execution on
	// the job tier (POST /v1/jobs); JobStatus is a job's observable
	// snapshot, JobWebhook its optional signed completion callback, and
	// JobMetrics the tier's counter snapshot (DESIGN.md §11).
	JobRequest = server.JobRequest
	JobStatus  = jobs.Status
	JobWebhook = jobs.WebhookSpec
	JobMetrics = jobs.Metrics
	// VersionInfo is the GET /v1/version document: service identity, API
	// revision and build provenance (DESIGN.md §12).
	VersionInfo = server.VersionInfo
	// CacheBackend is the shared cache tier's remote store interface; a
	// fleet of in-process servers can share one (e.g. NewMemCacheBackend)
	// via ServeConfig.Backend for fleet-wide cache hits and rate limits.
	CacheBackend = cache.Backend
	// ClusterStats counts the coordinator's per-worker shard dispatches
	// and local fallbacks (DESIGN.md §12).
	ClusterStats = cluster.Stats
)

// DefaultServeConfig returns the standard serving configuration
// (127.0.0.1:8077, 64 MiB cache, GOMAXPROCS in-flight executions).
func DefaultServeConfig() ServeConfig { return ServeConfig{} }

// Version reports the build and served API revision of this module —
// what a serving instance answers on GET /v1/version.
func Version() VersionInfo { return server.Version() }

// NewMemCacheBackend returns an in-memory shared cache backend, the
// in-process stand-in for a fleet's remote cache tier.
func NewMemCacheBackend() CacheBackend { return cache.NewMemBackend() }

// NewServer builds a serving instance. Serve it with
// ServeServer.ListenAndServe, or mount ServeServer.Handler in an existing
// HTTP server.
func NewServer(cfg ServeConfig) *ServeServer { return server.New(cfg) }

// OpenAPISpec returns the serving API's machine-readable description —
// byte-identical to simra-serve -dump-openapi, GET /v1/openapi.json and
// the committed docs/openapi.json (CI's spec-sync job enforces the
// latter).
func OpenAPISpec() []byte {
	s := server.New(server.Config{})
	defer s.Close()
	return s.OpenAPI()
}

// Serve runs a serving instance on cfg.Addr until ctx is cancelled, then
// shuts down gracefully. ready, if non-nil, receives the bound address
// once listening.
func Serve(ctx context.Context, cfg ServeConfig, ready chan<- string) error {
	return server.New(cfg).ListenAndServe(ctx, ready)
}

// SubmitJob submits a request for asynchronous execution on s's job tier
// — the in-process equivalent of POST /v1/jobs. existing reports that an
// equivalent live or succeeded job was joined instead of starting a new
// one.
func SubmitJob(s *ServeServer, req JobRequest) (st JobStatus, existing bool, err error) {
	return s.SubmitJob(req)
}

// JobState returns the current status of a job by ID — the in-process
// equivalent of GET /v1/jobs/{id}.
func JobState(s *ServeServer, id string) (JobStatus, error) { return s.JobStatus(id) }

// WaitJob blocks until the job is terminal (or ctx is done) and returns
// its final status.
func WaitJob(ctx context.Context, s *ServeServer, id string) (JobStatus, error) {
	return s.WaitJob(ctx, id)
}
