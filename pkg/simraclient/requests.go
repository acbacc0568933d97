package simraclient

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/server"
)

// The request and response documents are aliases of the types the
// server encodes and decodes (internal/server, internal/jobs), so the
// SDK and the server share one declaration of every document and cannot
// drift apart. Zero values select the server's defaults; field
// documentation is on the server's types and in docs/api-spec.md. The
// family requests' Workers field is never sent (json:"-"): the engine
// worker count is the server's setting.
type (
	// SweepRequest is POST /v1/sweep: one characterization figure/table.
	SweepRequest = server.SweepRequest
	// WorkloadRequest is POST /v1/workload: a fleet-wide workload sweep.
	WorkloadRequest = server.WorkloadRequest
	// TRNGRequest is POST /v1/trng: health-screened random bytes.
	TRNGRequest = server.TRNGRequest
	// ScenarioRequest is POST /v1/scenario: a grid scan or adaptive
	// envelope search.
	ScenarioRequest = server.ScenarioRequest
	// CampaignRequest is POST /v1/campaign: a fleet-design search for the
	// module mix with the best reliable throughput per watt.
	CampaignRequest = server.CampaignRequest
	// BatchItem is one request of a batch, discriminated by Kind. The
	// columnar format is not available in batches (binary cannot ride
	// the JSON envelope).
	BatchItem = server.BatchItem
	// BatchRequest is POST /v1/batch: several requests in one round trip.
	BatchRequest = server.BatchRequest
	// Envelope is the server's JSON response document for text/csv
	// formats; Error is set on failed batch items.
	Envelope = server.Response
	// Health is the GET /healthz document.
	Health = server.Health
	// PeerHealth is one peer's probe outcome in the Health document.
	PeerHealth = server.PeerHealth
	// VersionInfo is the GET /v1/version document.
	VersionInfo = server.VersionInfo
)

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
	return c.run(ctx, "sweep", q)
}

// Workload runs a fleet-wide workload sweep (POST /v1/workload).
func (c *Client) Workload(ctx context.Context, q WorkloadRequest) (*Result, error) {
	return c.run(ctx, "workload", q)
}

// TRNG draws health-screened random bytes (POST /v1/trng).
func (c *Client) TRNG(ctx context.Context, q TRNGRequest) (*Result, error) {
	return c.run(ctx, "trng", q)
}

// Scenario runs a grid scan or envelope search (POST /v1/scenario).
func (c *Client) Scenario(ctx context.Context, q ScenarioRequest) (*Result, error) {
	return c.run(ctx, "scenario", q)
}

// Campaign runs a fleet-design campaign (POST /v1/campaign).
func (c *Client) Campaign(ctx context.Context, q CampaignRequest) (*Result, error) {
	return c.run(ctx, "campaign", q)
}

// run posts q to the kind's blocking route. Kind is set from the route,
// because a columnar response carries no kind of its own.
func (c *Client) run(ctx context.Context, kind string, q any) (*Result, error) {
	resp, body, err := c.do(ctx, http.MethodPost, "/v1/"+kind, q, nil)
	if err != nil {
		return nil, err
	}
	r, err := decodeResult(resp, body)
	if err != nil {
		return nil, err
	}
	r.Kind = kind
	return r, nil
}

// Batch runs several requests in one round trip (POST /v1/batch). Item
// failures are reported in-band via Envelope.Error.
func (c *Client) Batch(ctx context.Context, q BatchRequest) ([]Envelope, error) {
	_, body, err := c.do(ctx, http.MethodPost, "/v1/batch", q, nil)
	if err != nil {
		return nil, err
	}
	var out server.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Responses, nil
}
