package server

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/trng"
	"repro/internal/workload"
)

// SweepRequest asks for one characterization figure/table, with the same
// parameter surface as cmd/simra-char. The engine worker count is a
// server-level setting, not a request parameter: results are
// bit-identical for every worker count, so exposing it would only
// fragment the cache.
type SweepRequest struct {
	// Figure is a charexp figure/table id ("3", "4a", …, "table1", "14",
	// "modules"); default "3".
	Figure string `json:"figure"`
	// Full selects the full 18-module Table-2 fleet instead of the
	// representative subset.
	Full bool `json:"full,omitempty"`
	// Trials, Groups, Banks, Columns and Seed override the reduced-scale
	// defaults (0 = default), exactly as the CLI flags do.
	Trials  int    `json:"trials,omitempty"`
	Groups  int    `json:"groups,omitempty"`
	Banks   int    `json:"banks,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Sets bounds the Fig. 15 Monte-Carlo sampling (0 = 200).
	Sets int `json:"sets,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

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
	known := q.Figure == "13" // alias of the Fig. 14 walkthrough
	for _, id := range charexp.FigureIDs() {
		if q.Figure == id {
			known = true
			break
		}
	}
	if !known {
		return q, fmt.Errorf("unknown figure %q; valid: %s",
			q.Figure, strings.Join(charexp.FigureIDs(), ", "))
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

// config builds the charexp configuration exactly as cmd/simra-char does
// for the same parameters, so the rendered bytes match the CLI's.
func (q SweepRequest) config() charexp.Config {
	cfg := charexp.DefaultConfig()
	fleetCfg := fleet.DefaultConfig()
	fleetCfg.Columns = 512
	if q.Columns > 0 {
		fleetCfg.Columns = q.Columns
	}
	if q.Full {
		cfg.Fleet = fleet.Modules(fleetCfg)
	} else {
		cfg.Fleet = fleet.Representative(fleetCfg)
	}
	if q.Trials > 0 {
		cfg.Trials = q.Trials
	}
	if q.Groups > 0 {
		cfg.GroupsPerSubarray = q.Groups
	}
	if q.Banks > 0 {
		cfg.Banks = q.Banks
	}
	if q.Seed != 0 {
		cfg.Seed = q.Seed
	}
	return cfg
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

// WorkloadRequest asks for a fleet-wide workload run, with the same
// parameter surface as cmd/simra-work (minus -workers; see SweepRequest).
type WorkloadRequest struct {
	// Workloads is "all" (default) or a comma-separated list of names.
	Workloads string `json:"workloads,omitempty"`
	// Modules is "representative" (default), "full", "samsung" or "all".
	Modules string `json:"modules,omitempty"`
	// MaxX, Columns and Seed override the defaults (0 = default).
	MaxX    int    `json:"maxx,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

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
	if _, err := q.options().Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// options maps the request onto the shared CLI resolution.
func (q WorkloadRequest) options() workload.Options {
	return workload.Options{
		Workloads: q.Workloads,
		Modules:   q.Modules,
		MaxX:      q.MaxX,
		Columns:   q.Columns,
		Seed:      q.Seed,
	}
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
// TRNG, with the same parameter surface as cmd/simra-trng. The response
// is the deterministic hex dump for the requested (seed, rows) stream.
type TRNGRequest struct {
	// Bytes is the number of random bytes (default 32, max 1 MiB).
	Bytes int `json:"bytes,omitempty"`
	// Seed is the module's process-variation seed (default 0x7e57).
	Seed uint64 `json:"seed,omitempty"`
	// Rows is the activation group size, a power of two in [2, 32]
	// (default 32).
	Rows int `json:"rows,omitempty"`
}

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

// options maps the request onto the shared generation loop.
func (q TRNGRequest) options() trng.Options {
	return trng.Options{Bytes: q.Bytes, Seed: q.Seed, Rows: q.Rows}
}

// key is the normalized request's content hash.
func (q TRNGRequest) key() cache.Key {
	return cache.NewHasher().
		Str("serve/trng/v1").
		Int(q.Bytes).U64(q.Seed).Int(q.Rows).
		Sum()
}

// ScenarioRequest asks for an operating-envelope scenario run — a grid
// scan or an adaptive envelope search — with the same parameter surface
// as cmd/simra-scan (minus -workers; see SweepRequest). The response is
// byte-identical to the CLI's stdout for the same parameters.
type ScenarioRequest struct {
	// Op is the operation family: "activation" (default), "maj" or "copy".
	Op string `json:"op,omitempty"`
	// Grid names a preset axis matrix ("nominal", "timing" — the default —
	// "thermal", "voltage", "pattern", "aging", "full").
	Grid string `json:"grid,omitempty"`
	// Axes overrides preset axes, e.g. "t2=1.5,3;temp=50,90".
	Axes string `json:"axes,omitempty"`
	// Envelope selects adaptive envelope search on the named axis
	// ("" = grid scan); Target is its success threshold (0 = 0.9).
	Envelope string  `json:"envelope,omitempty"`
	Target   float64 `json:"target,omitempty"`
	// Modules is "representative" (default) or "full".
	Modules string `json:"modules,omitempty"`
	// X, N, Trials, Groups, Banks, Columns and Seed override the defaults
	// (0 = default), exactly as the CLI flags do.
	X       int    `json:"x,omitempty"`
	N       int    `json:"n,omitempty"`
	Trials  int    `json:"trials,omitempty"`
	Groups  int    `json:"groups,omitempty"`
	Banks   int    `json:"banks,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

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
	if _, err := q.options().Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// options maps the request onto the shared CLI resolution.
func (q ScenarioRequest) options() scenario.Options {
	return scenario.Options{
		Op:       q.Op,
		Grid:     q.Grid,
		Axes:     q.Axes,
		Envelope: q.Envelope,
		Target:   q.Target,
		Modules:  q.Modules,
		X:        q.X,
		N:        q.N,
		Trials:   q.Trials,
		Groups:   q.Groups,
		Banks:    q.Banks,
		Columns:  q.Columns,
		Seed:     q.Seed,
	}
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
// a target workload — with the same parameter surface as
// cmd/simra-campaign (minus -workers; see SweepRequest). The response is
// byte-identical to the CLI's stdout for the same parameters.
type CampaignRequest struct {
	// Workload is the target workload's name (default "bitmap-scan").
	Workload string `json:"workload,omitempty"`
	// FleetSize is the number of modules per candidate mix (0 = 3, max 6).
	FleetSize int `json:"size,omitempty"`
	// Top bounds the ranked candidates in the report (0 = 10).
	Top int `json:"top,omitempty"`
	// MaxX, Columns and Seed override the defaults (0 = default).
	MaxX    int    `json:"maxx,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

// normalize fills defaults and validates the request by resolving it.
func (q CampaignRequest) normalize() (CampaignRequest, error) {
	if q.Workload == "" {
		q.Workload = "bitmap-scan"
	}
	if err := normalizeFormat(&q.Format); err != nil {
		return q, err
	}
	if _, err := q.options().Resolve(); err != nil {
		return q, err
	}
	return q, nil
}

// options maps the request onto the shared CLI resolution.
func (q CampaignRequest) options() campaign.Options {
	return campaign.Options{
		Workload:  q.Workload,
		FleetSize: q.FleetSize,
		Top:       q.Top,
		MaxX:      q.MaxX,
		Columns:   q.Columns,
		Seed:      q.Seed,
	}
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
