package server

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/scenario"
	"repro/internal/trng"
	"repro/internal/workload"
)

// The request types are defined types over each family's Options, the
// one declaration of its parameters: its json tags are the wire fields
// and its flag tags the family CLI's flags. Workers is tagged json:"-"
// and so is no wire field: results are bit-identical for every worker
// count, so exposing it would only fragment the cache, and the engine
// worker count is a server-level setting. normalize fills defaults and
// validates (the 422 contract); key hashes the normalized request into
// its whole-response cache address.

// SweepRequest asks for one characterization figure/table (see
// charexp.Options); Figure defaults to "3".
type SweepRequest charexp.Options

// normalizeFormat defaults an empty render format to text and checks
// it against the render formats every tabular family serves.
func normalizeFormat(f *string) error {
	if *f == "" {
		*f = charexp.FormatText
	}
	return charexp.CheckFormat(*f)
}

// normalize fills defaults and validates the request.
func (q SweepRequest) normalize() (SweepRequest, error) {
	if q.Figure == "" {
		q.Figure = "3"
	}
	if err := normalizeFormat(&q.Format); err != nil {
		return q, err
	}
	if _, err := charexp.CheckFigure(q.Figure); err != nil {
		return q, err
	}
	if q.Sets <= 0 {
		q.Sets = 200
	}
	if q.Figure != "15" {
		// Sets only affects Fig. 15; normalizing it away keeps one cache
		// entry per figure regardless of the requested value.
		q.Sets = 0
	}
	return q, nil
}

// key is the normalized request's content hash: the whole-response cache
// address.
func (q SweepRequest) key() cache.Key {
	return cache.NewHasher().
		Str(keyTag("sweep", q.Format)).
		Str(q.Figure).Bool(q.Full).
		Int(q.Trials).Int(q.Groups).Int(q.Banks).Int(q.Columns).
		U64(q.Seed).Int(q.Sets).Str(q.Format).
		Sum()
}

// WorkloadRequest asks for a fleet-wide workload run (see
// workload.Options).
type WorkloadRequest workload.Options

// normalize fills defaults and validates the request by resolving it.
func (q WorkloadRequest) normalize() (WorkloadRequest, error) {
	if q.Workloads == "" {
		q.Workloads = "all"
	}
	if q.Modules == "" {
		q.Modules = "representative"
	}
	if err := normalizeFormat(&q.Format); err != nil {
		return q, err
	}
	if _, err := workload.Options(q).Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// key is the normalized request's content hash.
func (q WorkloadRequest) key() cache.Key {
	return cache.NewHasher().
		Str(keyTag("workload", q.Format)).
		Str(q.Workloads).Str(q.Modules).
		Int(q.MaxX).Int(q.Columns).U64(q.Seed).Str(q.Format).
		Sum()
}

// TRNGRequest asks for health-screened random bytes from the simulated
// TRNG (see trng.Options). The response is the deterministic hex dump
// for the requested (seed, rows) stream.
type TRNGRequest trng.Options

// normalize fills defaults and validates bounds.
func (q TRNGRequest) normalize() (TRNGRequest, error) {
	if q.Bytes == 0 {
		q.Bytes = 32
	}
	if q.Seed == 0 {
		q.Seed = 0x7e57
	}
	if q.Rows == 0 {
		q.Rows = 32
	}
	if q.Bytes < 0 || q.Bytes > 1<<20 {
		return q, fmt.Errorf("bytes must be in (0, 1Mi]")
	}
	if q.Rows < 2 || q.Rows&(q.Rows-1) != 0 || q.Rows > 32 {
		return q, fmt.Errorf("rows must be a power of two in [2, 32]")
	}
	return q, nil
}

// key is the normalized request's content hash.
func (q TRNGRequest) key() cache.Key {
	return cache.NewHasher().
		Str("serve/trng/v1").
		Int(q.Bytes).U64(q.Seed).Int(q.Rows).
		Sum()
}

// ScenarioRequest asks for an operating-envelope scenario run — a grid
// scan or an adaptive envelope search (see scenario.Options). The
// response is byte-identical to cmd/simra-scan's stdout for the same
// parameters.
type ScenarioRequest scenario.Options

// normalize fills defaults and validates the request by resolving it.
func (q ScenarioRequest) normalize() (ScenarioRequest, error) {
	if q.Op == "" {
		q.Op = "activation"
	}
	if q.Grid == "" {
		q.Grid = "timing"
	}
	if q.Modules == "" {
		q.Modules = "representative"
	}
	if err := normalizeFormat(&q.Format); err != nil {
		return q, err
	}
	if q.Envelope != "" && q.Target == 0 {
		// Explicit default so {"envelope":"t2"} and
		// {"envelope":"t2","target":0.9} share one cache entry.
		q.Target = 0.9
	}
	if _, err := scenario.Options(q).Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// key is the normalized request's content hash.
func (q ScenarioRequest) key() cache.Key {
	return cache.NewHasher().
		Str(keyTag("scenario", q.Format)).
		Str(q.Op).Str(q.Grid).Str(q.Axes).
		Str(q.Envelope).F64(q.Target).Str(q.Modules).
		Int(q.X).Int(q.N).
		Int(q.Trials).Int(q.Groups).Int(q.Banks).Int(q.Columns).
		U64(q.Seed).Str(q.Format).
		Sum()
}

// CampaignRequest asks for a fleet-design campaign — the ranked search
// over Table-2 module mixes for the best reliable throughput per watt on
// a target workload (see campaign.Options). The response is
// byte-identical to cmd/simra-campaign's stdout for the same parameters.
type CampaignRequest campaign.Options

// normalize fills defaults and validates the request by resolving it.
func (q CampaignRequest) normalize() (CampaignRequest, error) {
	if q.Workload == "" {
		q.Workload = "bitmap-scan"
	}
	if err := normalizeFormat(&q.Format); err != nil {
		return q, err
	}
	if _, err := campaign.Options(q).Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// key is the normalized request's content hash.
func (q CampaignRequest) key() cache.Key {
	return cache.NewHasher().
		Str(keyTag("campaign", q.Format)).
		Str(q.Workload).Int(q.FleetSize).Int(q.Top).
		Int(q.MaxX).Int(q.Columns).U64(q.Seed).Str(q.Format).
		Sum()
}

// BatchRequest submits several requests in one round trip. Items execute
// in order; each one goes through the same cache + coalescing path as its
// dedicated endpoint, so a batch of identical items still costs one
// engine run.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// Response is the JSON envelope of every serving result.
type Response struct {
	// Kind echoes the request kind.
	Kind string `json:"kind"`
	// Key is the canonical content hash the result is cached under.
	Key string `json:"key"`
	// Cached reports whether this response was served without running the
	// engine (a cache hit, or coalesced onto a concurrent identical run).
	Cached bool `json:"cached"`
	// Output is the rendered result: for sweep and workload requests it is
	// byte-identical to the corresponding CLI's stdout for the same
	// parameters.
	Output string `json:"output"`
	// Error is set (with an empty Output) when the item failed; batch
	// siblings still execute.
	Error string `json:"error,omitempty"`
}

// BatchResponse carries one Response per batch item, in request order.
type BatchResponse struct {
	Responses []Response `json:"responses"`
}
