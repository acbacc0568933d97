package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/trng"
	"repro/internal/workload"
)

// families is the request-family table: one row per family, in the order
// the unknown-kind message and the /metrics page list them. It drives the
// blocking POST /v1/<kind> routes, /v1/batch items, /v1/jobs envelopes,
// the OpenAPI document and the per-kind counters. Adding a family takes
// its request type, its payload field on JobRequest and BatchItem, its
// exec pipeline and one row here.
var families = []family{
	newFamily("sweep", "Run one characterization figure/table (charexp sweep)",
		func(b *BatchItem) **SweepRequest { return &b.Sweep },
		func(j *JobRequest) **SweepRequest { return &j.Sweep },
		func(q *SweepRequest) *string { return &q.Format },
		(*Server).sweepExec),
	newFamily("workload", "Run a fleet-wide workload sweep",
		func(b *BatchItem) **WorkloadRequest { return &b.Workload },
		func(j *JobRequest) **WorkloadRequest { return &j.Workload },
		func(q *WorkloadRequest) *string { return &q.Format },
		(*Server).workloadExec),
	newFamily("trng", "Draw health-screened random bytes from the simulated TRNG",
		func(b *BatchItem) **TRNGRequest { return &b.TRNG },
		func(j *JobRequest) **TRNGRequest { return &j.TRNG },
		nil,
		(*Server).trngExec),
	newFamily("scenario", "Run an operating-envelope scenario: grid scan or adaptive envelope search",
		func(b *BatchItem) **ScenarioRequest { return &b.Scenario },
		func(j *JobRequest) **ScenarioRequest { return &j.Scenario },
		func(q *ScenarioRequest) *string { return &q.Format },
		(*Server).scenarioExec),
	newFamily("campaign", "Run a fleet-design campaign: rank Table-2 module mixes by reliable throughput per watt",
		func(b *BatchItem) **CampaignRequest { return &b.Campaign },
		func(j *JobRequest) **CampaignRequest { return &j.Campaign },
		func(q *CampaignRequest) *string { return &q.Format },
		(*Server).campaignExec),
}

// kinds are the counter labels: every family in table order, then "batch".
var kinds = func() []string {
	var ks []string
	for _, f := range families {
		ks = append(ks, f.kind)
	}
	return append(ks, "batch")
}()

// JobRequest submits one request family for asynchronous execution: the
// discriminated payload mirrors BatchItem, plus an optional completion
// webhook. The job's identity is the inner request's canonical cache key,
// so a job and the corresponding blocking POST address the same cache
// entry and produce byte-identical output.
type JobRequest struct {
	Kind     string           `json:"kind"` // names a families row, e.g. "sweep"
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Workload *WorkloadRequest `json:"workload,omitempty"`
	TRNG     *TRNGRequest     `json:"trng,omitempty"`
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	Campaign *CampaignRequest `json:"campaign,omitempty"`
	// Webhook, when set, receives the signed terminal job status (see
	// DESIGN.md §11 for the signature scheme).
	Webhook *jobs.WebhookSpec `json:"webhook,omitempty"`
}

// BatchItem is one request of a batch, discriminated by Kind.
type BatchItem struct {
	Kind     string           `json:"kind"` // names a families row, e.g. "sweep"
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Workload *WorkloadRequest `json:"workload,omitempty"`
	TRNG     *TRNGRequest     `json:"trng,omitempty"`
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	Campaign *CampaignRequest `json:"campaign,omitempty"`
}

// request is the method set every family's request type has: normalize
// fills defaults and validates (the 422 contract), key hashes the
// normalized request into its whole-response cache address.
type request[Q any] interface {
	normalize() (Q, error)
	key() cache.Key
}

// family is one row of the families table. columnar marks families with
// a format field: they serve the columnar encoding, and their blocking
// route defaults an empty format from the Accept header. itemFormat is a
// batch item's format as sent ("" when absent or formatless).
type family struct {
	kind, summary string
	request       reflect.Type // the blocking route's body type
	columnar      bool
	handler       func(*Server) http.HandlerFunc // POST /v1/<kind>
	itemFormat    func(*BatchItem) string
	item          slot[BatchItem]
	job           slot[JobRequest]
}

// slot is one family's payload field in envelope type E: whether it is
// present, and bind, which normalizes it in place (absent = defaults) and
// binds it to the family's pipeline (s may be nil when only the key is
// used).
type slot[E any] struct {
	present func(*E) bool
	bind    func(s *Server, e *E) (cache.Key, kindExec, error)
}

// newFamily builds one table row over the family's request type Q: item
// and job pick the payload field out of each envelope, format its format
// field (nil when it has none), exec its pipeline.
func newFamily[Q request[Q]](kind, summary string,
	item func(*BatchItem) **Q, job func(*JobRequest) **Q,
	format func(*Q) *string, exec pipeline[Q]) family {
	return family{
		kind: kind, summary: summary,
		request: reflect.TypeFor[Q](), columnar: format != nil,
		handler: func(s *Server) http.HandlerFunc { return endpoint(s, kind, format, exec) },
		itemFormat: func(b *BatchItem) string {
			if p := *item(b); p != nil && format != nil {
				return *format(p)
			}
			return ""
		},
		item: newSlot(item, exec),
		job:  newSlot(job, exec),
	}
}

// newSlot erases one envelope's payload field to a slot.
func newSlot[E any, Q request[Q]](field func(*E) **Q, exec pipeline[Q]) slot[E] {
	return slot[E]{
		present: func(e *E) bool { return *field(e) != nil },
		bind: func(s *Server, e *E) (cache.Key, kindExec, error) {
			var q Q
			if p := *field(e); p != nil {
				q = *p
			}
			q, err := q.normalize()
			if err != nil {
				return cache.Key{}, nil, err
			}
			*field(e) = &q
			return q.key(), func(ctx context.Context, st *engine.Stats, pool dram.ModulePool) (string, error) {
				return exec(s, ctx, q, st, pool)
			}, nil
		},
	}
}

// envelopeFamily resolves an envelope's kind to its row, rejecting unknown
// kinds and payloads that belong to another family (a stray payload is
// never silently dropped). slotOf selects the envelope type's slot.
func envelopeFamily[E any](kind string, e *E, slotOf func(*family) slot[E]) (*family, error) {
	var named *family
	stray := ""
	for i := range families {
		if f := &families[i]; f.kind == kind {
			named = f
		} else if slotOf(f).present(e) {
			stray = f.kind
		}
	}
	if named == nil {
		return nil, fmt.Errorf("unknown kind %q; valid: %s", kind, strings.Join(kinds[:len(families)], ", "))
	}
	if stray != "" {
		return nil, fmt.Errorf("kind %q does not take a %q payload; valid: %s", kind, stray, kind)
	}
	return named, nil
}

// pipeline is one request family's execution pipeline with the job tier's
// observability hooks threaded through: st receives live shard progress,
// pool supplies warm module instances. Blocking requests pass (nil, nil):
// neither hook affects result bytes. kindExec is a pipeline bound to one
// normalized request.
type (
	pipeline[Q any] func(s *Server, ctx context.Context, q Q, st *engine.Stats, pool dram.ModulePool) (string, error)
	kindExec        func(ctx context.Context, st *engine.Stats, pool dram.ModulePool) (string, error)
)

// render captures a family's report writer as the response output.
func render[R any](write func(io.Writer, R, string) error, res R, format string) (string, error) {
	var b strings.Builder
	if err := write(&b, res, format); err != nil {
		return "", err
	}
	return b.String(), nil
}

// sweepExec runs the sweep pipeline for one normalized request.
func (s *Server) sweepExec(ctx context.Context, q SweepRequest, st *engine.Stats, pool dram.ModulePool) (string, error) {
	cfg := charexp.Options(q).Config()
	cfg.Engine.Workers = s.cfg.Workers
	cfg.ShardMemo = s.sweepMemo
	cfg.Dispatch = s.dispatch(ctx)
	cfg.Stats = st
	cfg.Pool = pool
	runner, err := charexp.NewRunner(cfg)
	if err != nil {
		return "", err
	}
	defer runner.Release()
	return runner.RunFigure(q.Figure, q.Sets, q.Format)
}

// workloadExec runs the workload pipeline for one normalized request.
func (s *Server) workloadExec(ctx context.Context, q WorkloadRequest, st *engine.Stats, pool dram.ModulePool) (string, error) {
	cfg, err := workload.Options(q).Resolve()
	if err != nil {
		return "", err
	}
	cfg.Engine.Workers = s.cfg.Workers
	cfg.Memo = s.workloadMemo
	cfg.Dispatch = s.dispatch(ctx)
	cfg.Stats = st
	cfg.Pool = pool
	results, err := workload.RunFleet(ctx, cfg)
	if err != nil {
		return "", err
	}
	return render(workload.WriteReport, results, q.Format)
}

// trngExec runs the TRNG pipeline for one normalized request. The
// generator runs on a private throwaway module, so the warmpool and
// progress hooks don't apply.
func (s *Server) trngExec(_ context.Context, q TRNGRequest, _ *engine.Stats, _ dram.ModulePool) (string, error) {
	out, err := trng.Generate(trng.Options(q))
	if err != nil {
		return "", err
	}
	return trng.FormatHex(out), nil
}

// scenarioExec runs the scenario pipeline for one normalized request.
// Point shards are memoized in the same store as sweep shards (both are
// []core.GroupOutcome under distinct key families), so an envelope search
// warms later grid scans and vice versa.
func (s *Server) scenarioExec(ctx context.Context, q ScenarioRequest, st *engine.Stats, pool dram.ModulePool) (string, error) {
	cfg, err := scenario.Options(q).Resolve()
	if err != nil {
		return "", err
	}
	cfg.Engine.Workers = s.cfg.Workers
	cfg.Memo = s.sweepMemo
	cfg.Dispatch = s.dispatch(ctx)
	cfg.Stats = st
	cfg.Pool = pool
	res, err := scenario.Run(ctx, cfg)
	if err != nil {
		return "", err
	}
	return render(scenario.WriteReport, res, q.Format)
}

// campaignExec runs the campaign pipeline for one normalized request.
// Phase-1 module shards share workloadMemo with the workload family (a
// campaign warms workload requests and vice versa).
func (s *Server) campaignExec(ctx context.Context, q CampaignRequest, st *engine.Stats, pool dram.ModulePool) (string, error) {
	cfg, err := campaign.Options(q).Resolve()
	if err != nil {
		return "", err
	}
	cfg.Engine.Workers = s.cfg.Workers
	cfg.ModMemo = s.workloadMemo
	cfg.Dispatch = s.dispatch(ctx)
	cfg.Stats = st
	cfg.Pool = pool
	res, err := campaign.Run(ctx, cfg)
	if err != nil {
		return "", err
	}
	return render(campaign.WriteReport, res, q.Format)
}
