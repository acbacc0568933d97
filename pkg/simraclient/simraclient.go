// Package simraclient is the typed Go client for the simra-serve HTTP
// API (docs/api-spec.md, docs/openapi.json): the blocking experiment
// routes, the async job tier with SSE progress watching, and the
// columnar bulk-result encoding decoded into typed column accessors.
//
// Quick start — three lines to a decoded columnar sweep:
//
//	c := simraclient.New("http://localhost:8077")
//	res, err := c.Sweep(ctx, simraclient.SweepRequest{Figure: "table1", Format: "columnar"})
//	rate := res.Table.Col("mean").Float64s[0] // typed column accessor
//
// Every call retries transparently on 429/503 (honoring Retry-After),
// authenticates with the configured bearer token, and attaches a unique
// X-Request-ID that error values echo for audit-trail correlation.
package simraclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// Client talks to one simra-serve instance. The zero value is not
// usable; construct with New.
type Client struct {
	baseURL string
	http    *http.Client
	token   string
	retries int
	backoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithToken sets the bearer token sent as Authorization on every call.
func WithToken(tok string) Option { return func(c *Client) { c.token = tok } }

// WithRetries bounds how many times a call is retried after a 429/503 or
// a transport error (default 3; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff used when the server sends no
// Retry-After header (default 100ms, doubling per attempt).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// New builds a client for the serving instance at baseURL
// (e.g. "http://localhost:8077").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    http.DefaultClient,
		retries: 3,
		backoff: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's versioned
// error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable identifier ("invalid_argument",
	// "rate_limited", …).
	Code string
	// Message is the human-readable error.
	Message string
	// RequestID ties the failure to the server's audit trail.
	RequestID string
	// ValidOptions lists the accepted values when the error names an
	// unknown option (e.g. format → ["text", "csv", "columnar"]).
	ValidOptions []string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("simra: %s (%d): %s", e.Code, e.Status, e.Message)
}

// requestID mints one unique X-Request-ID value.
func requestID() string {
	var b [8]byte
	rand.Read(b[:])
	return "sdk-" + hex.EncodeToString(b[:])
}

// do issues one API call with auth, request-ID plumbing and bounded
// retries: 429/503 responses (honoring Retry-After) and transport errors
// are retried, everything else returns immediately. The response body is
// fully read; non-2xx statuses come back as *APIError.
func (c *Client) do(ctx context.Context, method, path string, body any, hdr map[string]string) (*http.Response, []byte, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, nil, fmt.Errorf("simra: encode request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
		if err != nil {
			return nil, nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		req.Header.Set("X-Request-ID", requestID())
		for k, v := range hdr {
			req.Header.Set(k, v)
		}

		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
		} else {
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				lastErr = err
			} else if retryable(resp.StatusCode) {
				lastErr = apiError(resp, b)
			} else if resp.StatusCode >= 400 {
				return resp, b, apiError(resp, b)
			} else {
				return resp, b, nil
			}
			if attempt < c.retries {
				if wait, ok := retryAfter(resp); ok {
					if err := sleep(ctx, wait); err != nil {
						return nil, nil, err
					}
					continue
				}
			}
		}
		if attempt >= c.retries {
			return nil, nil, lastErr
		}
		if err := sleep(ctx, c.backoff<<uint(attempt)); err != nil {
			return nil, nil, err
		}
	}
}

// retryable reports whether an error status is worth retrying: the
// server's load-shedding answers, 429 and 503.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryAfter parses a response's Retry-After header (delay seconds).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	if resp == nil {
		return 0, false
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// apiError decodes a non-2xx body into *APIError, falling back to the
// raw body when it is not the error envelope.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{Status: resp.StatusCode}
	var env server.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		e.RequestID = env.Error.RequestID
		e.ValidOptions = env.Error.ValidOptions
		return e
	}
	e.Code = "http_" + strconv.Itoa(resp.StatusCode)
	e.Message = strings.TrimSpace(string(body))
	return e
}

// Version fetches GET /v1/version.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	_, body, err := c.do(ctx, http.MethodGet, "/v1/version", nil, nil)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(body, &v)
}

// Health fetches GET /healthz.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	_, body, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// OpenAPI fetches the server's machine-readable API description
// (GET /v1/openapi.json).
func (c *Client) OpenAPI(ctx context.Context) ([]byte, error) {
	_, body, err := c.do(ctx, http.MethodGet, "/v1/openapi.json", nil, nil)
	return body, err
}
