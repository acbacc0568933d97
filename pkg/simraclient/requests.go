package simraclient

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
)

// The request types mirror the documented API surface (docs/api-spec.md,
// docs/openapi.json) field for field. Zero values select the server's
// defaults.

// SweepRequest is POST /v1/sweep: one characterization figure/table.
type SweepRequest struct {
	// Figure is a charexp figure/table id ("3", "4a", …, "table1",
	// "modules"); default "3".
	Figure string `json:"figure,omitempty"`
	// Full selects the full 18-module fleet instead of the representative
	// subset.
	Full bool `json:"full,omitempty"`
	// Trials, Groups, Banks, Columns and Seed override the reduced-scale
	// defaults (0 = default).
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

// WorkloadRequest is POST /v1/workload: a fleet-wide workload sweep.
type WorkloadRequest struct {
	// Workloads is "all" (default) or a comma-separated list of names.
	Workloads string `json:"workloads,omitempty"`
	// Modules is "representative" (default), "full", "samsung" or "all".
	Modules string `json:"modules,omitempty"`
	MaxX    int    `json:"maxx,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

// TRNGRequest is POST /v1/trng: health-screened random bytes.
type TRNGRequest struct {
	// Bytes is the number of random bytes (default 32, max 1 MiB).
	Bytes int `json:"bytes,omitempty"`
	// Seed is the module's process-variation seed (default 0x7e57).
	Seed uint64 `json:"seed,omitempty"`
	// Rows is the activation group size, a power of two in [2, 32].
	Rows int `json:"rows,omitempty"`
}

// ScenarioRequest is POST /v1/scenario: a grid scan or adaptive envelope
// search.
type ScenarioRequest struct {
	// Op is "activation" (default), "maj" or "copy".
	Op string `json:"op,omitempty"`
	// Grid names a preset axis matrix ("timing" — the default — "nominal",
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

// CampaignRequest is POST /v1/campaign: a fleet-design search for the
// module mix with the best reliable throughput per watt.
type CampaignRequest struct {
	// Workload is the target workload's name (default "bitmap-scan").
	Workload string `json:"workload,omitempty"`
	// FleetSize is the number of modules per candidate mix (0 = 3).
	FleetSize int `json:"size,omitempty"`
	// Top bounds the ranked candidates in the report (0 = 10).
	Top     int    `json:"top,omitempty"`
	MaxX    int    `json:"maxx,omitempty"`
	Columns int    `json:"cols,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Format is "text" (default), "csv" or "columnar".
	Format string `json:"format,omitempty"`
}

// BatchItem is one request of a batch, discriminated by Kind ("sweep",
// "workload", "trng", "scenario" or "campaign"). The columnar format is
// not available in batches (binary cannot ride the JSON envelope).
type BatchItem struct {
	Kind     string           `json:"kind"`
	Sweep    *SweepRequest    `json:"sweep,omitempty"`
	Workload *WorkloadRequest `json:"workload,omitempty"`
	TRNG     *TRNGRequest     `json:"trng,omitempty"`
	Scenario *ScenarioRequest `json:"scenario,omitempty"`
	Campaign *CampaignRequest `json:"campaign,omitempty"`
}

// BatchRequest is POST /v1/batch: several requests in one round trip.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// Envelope is the server's JSON response document for text/csv formats.
type Envelope struct {
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	Output string `json:"output"`
	// Error is set on failed batch items (siblings still execute).
	Error string `json:"error,omitempty"`
}

// Health is the GET /healthz document: liveness, the node's cluster role
// and, on a coordinator, each peer's probed health.
type Health struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Role          string       `json:"role"`
	Groups        int          `json:"groups"`
	Peers         []PeerHealth `json:"peers,omitempty"`
}

// PeerHealth is one peer's probe outcome in the Health document.
type PeerHealth struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// VersionInfo is the GET /v1/version document.
type VersionInfo struct {
	Service     string `json:"service"`
	APIRevision string `json:"api_revision"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"revision,omitempty"`
	Dirty       bool   `json:"dirty,omitempty"`
}

// Result is one decoded experiment response. Text and csv formats carry
// the rendered Output; the columnar format carries the decoded Table and
// the raw stream bytes instead.
type Result struct {
	// Kind echoes the request kind.
	Kind string
	// Key is the content hash the result is cached under (X-Simra-Key for
	// columnar responses).
	Key string
	// Cached reports the response was served without an engine run.
	Cached bool
	// Output is the rendered text/csv payload ("" for columnar).
	Output string
	// Table is the decoded columnar table (nil for text/csv). Use
	// Table.Col(name) for typed column access or Table.Strings() for
	// formatted rows; Rows iterates decoded rows.
	Table *Table
	// Columnar is the raw colenc stream the table was decoded from.
	Columnar []byte
	// TotalRows and BatchCount mirror the X-Simra-* stream headers.
	TotalRows, BatchCount int
}

// decodeResult turns one blocking-route response into a Result,
// dispatching on the response media type: the columnar encoding is
// decoded into a Table, everything else is the JSON envelope.
func decodeResult(resp *http.Response, body []byte) (*Result, error) {
	if resp.Header.Get("Content-Type") == ColumnarContentType {
		t, err := DecodeColumnar(body)
		if err != nil {
			return nil, err
		}
		r := &Result{
			Key:      resp.Header.Get("X-Simra-Key"),
			Cached:   resp.Header.Get("X-Simra-Cached") == "true",
			Table:    t,
			Columnar: body,
		}
		r.TotalRows, _ = strconv.Atoi(resp.Header.Get("X-Simra-Total-Rows"))
		r.BatchCount, _ = strconv.Atoi(resp.Header.Get("X-Simra-Batch-Count"))
		return r, nil
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	return &Result{Kind: env.Kind, Key: env.Key, Cached: env.Cached, Output: env.Output}, nil
}

// Sweep runs one characterization figure/table (POST /v1/sweep).
func (c *Client) Sweep(ctx context.Context, q SweepRequest) (*Result, error) {
	return c.run(ctx, "/v1/sweep", q)
}

// Workload runs a fleet-wide workload sweep (POST /v1/workload).
func (c *Client) Workload(ctx context.Context, q WorkloadRequest) (*Result, error) {
	return c.run(ctx, "/v1/workload", q)
}

// TRNG draws health-screened random bytes (POST /v1/trng).
func (c *Client) TRNG(ctx context.Context, q TRNGRequest) (*Result, error) {
	return c.run(ctx, "/v1/trng", q)
}

// Scenario runs a grid scan or envelope search (POST /v1/scenario).
func (c *Client) Scenario(ctx context.Context, q ScenarioRequest) (*Result, error) {
	return c.run(ctx, "/v1/scenario", q)
}

// Campaign runs a fleet-design campaign (POST /v1/campaign).
func (c *Client) Campaign(ctx context.Context, q CampaignRequest) (*Result, error) {
	return c.run(ctx, "/v1/campaign", q)
}

func (c *Client) run(ctx context.Context, path string, q any) (*Result, error) {
	resp, body, err := c.do(ctx, http.MethodPost, path, q, nil)
	if err != nil {
		return nil, err
	}
	return decodeResult(resp, body)
}

// Batch runs several requests in one round trip (POST /v1/batch). Item
// failures are reported in-band via Envelope.Error.
func (c *Client) Batch(ctx context.Context, q BatchRequest) ([]Envelope, error) {
	_, body, err := c.do(ctx, http.MethodPost, "/v1/batch", q, nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Responses []Envelope `json:"responses"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Responses, nil
}
