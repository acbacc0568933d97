package simraclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/jobs"
	"repro/internal/server"
)

// The job documents are aliases of the server's types, like the
// request types in requests.go.
type (
	// JobRequest is POST /v1/jobs: one request family submitted for
	// asynchronous execution, discriminated by Kind, with an optional
	// completion webhook.
	JobRequest = server.JobRequest
	// JobWebhook is a job's optional completion callback.
	JobWebhook = jobs.WebhookSpec
	// JobProgress is a point-in-time view of a job's per-shard progress.
	JobProgress = jobs.Progress
	// JobTransition is one audit-trail entry.
	JobTransition = jobs.Transition
	// JobStatus is a job's observable snapshot — the /v1/jobs/{id} body.
	// Its Terminal method reports whether the state is final.
	JobStatus = jobs.Status
)

// JobEvent is one frame of a job's SSE progress stream.
type JobEvent struct {
	// ID is the sequential event number (the SSE id, resumable via
	// Last-Event-ID).
	ID int64
	// Type is "progress" or "done".
	Type string
	// Data is the raw event payload.
	Data string
	// Progress is the decoded payload of "progress" events.
	Progress *JobProgress
}

// ErrJobNotReady is returned by JobResult while the job is still queued
// or running.
var ErrJobNotReady = errors.New("simra: job result not ready")

// SubmitJob submits a request for asynchronous execution (POST
// /v1/jobs). A submission equivalent to a live or cached job joins it
// instead of starting a new one.
func (c *Client) SubmitJob(ctx context.Context, q JobRequest) (JobStatus, error) {
	var st JobStatus
	_, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", q, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// Job fetches one job's status snapshot (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	_, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// CancelJob cancels a queued or running job (DELETE /v1/jobs/{id}).
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	_, body, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// JobResult fetches a succeeded job's result (GET /v1/jobs/{id}/result),
// decoding it exactly like the blocking routes: a Table for columnar
// jobs, rendered Output otherwise. Kind and Key come from the job ID,
// which is <kind>-<key>. Returns ErrJobNotReady while the job is still
// queued or running.
func (c *Client) JobResult(ctx context.Context, id string) (*Result, error) {
	resp, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusAccepted {
		return nil, ErrJobNotReady
	}
	var r *Result
	if ct := resp.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/plain") {
		r = &Result{
			Cached: resp.Header.Get("X-Simra-Cached") == "true",
			Output: string(body),
		}
	} else if r, err = decodeResult(resp, body); err != nil {
		return nil, err
	}
	r.Kind, r.Key, _ = strings.Cut(id, "-")
	return r, nil
}

// WatchJob follows a job's SSE progress stream (GET
// /v1/jobs/{id}/events) until the job is terminal, invoking onEvent (if
// non-nil) for every frame and returning the final status. Dropped
// connections resume from the last seen event via Last-Event-ID, with
// the client's retry budget; an error status other than 429/503 (an
// unknown job's 404, say) returns at once as *APIError.
func (c *Client) WatchJob(ctx context.Context, id string, onEvent func(JobEvent)) (JobStatus, error) {
	var lastID int64
	for attempt := 0; ; attempt++ {
		done, err := c.watchOnce(ctx, id, &lastID, onEvent)
		if done != nil {
			// The done event carries the terminal status. A server that
			// sends only {state, error} there has no id in it: ask the
			// status route instead.
			var st JobStatus
			if json.Unmarshal([]byte(done.Data), &st) == nil && st.ID != "" {
				return st, nil
			}
			return c.Job(ctx, id)
		}
		if ctx.Err() != nil {
			return JobStatus{}, ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !retryable(apiErr.Status) {
			return JobStatus{}, err
		}
		if attempt >= c.retries {
			if err == nil {
				err = fmt.Errorf("simra: job %s event stream ended before completion", id)
			}
			return JobStatus{}, err
		}
		if err := sleep(ctx, c.backoff<<uint(attempt)); err != nil {
			return JobStatus{}, err
		}
	}
}

// watchOnce consumes one SSE connection, updating *lastID as frames
// arrive. done is the terminal "done" event, nil when the stream ended
// before it.
func (c *Client) watchOnce(ctx context.Context, id string, lastID *int64, onEvent func(JobEvent)) (done *JobEvent, err error) {
	hdr := map[string]string{"Accept": "text/event-stream"}
	if *lastID > 0 {
		hdr["Last-Event-ID"] = strconv.FormatInt(*lastID, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, apiError(resp, body)
	}

	var ev JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.Type == "" && ev.Data == "" {
				continue
			}
			if ev.Type == "progress" {
				var p JobProgress
				if json.Unmarshal([]byte(ev.Data), &p) == nil {
					ev.Progress = &p
				}
			}
			if ev.ID > 0 {
				*lastID = ev.ID
			}
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.Type == "done" {
				return &ev, nil
			}
			ev = JobEvent{}
		}
	}
	return nil, sc.Err()
}

// RunJob is the high-level helper: submit, watch to completion, fetch
// the result. Cached submissions skip the watch entirely.
func (c *Client) RunJob(ctx context.Context, q JobRequest, onEvent func(JobEvent)) (*Result, error) {
	st, err := c.SubmitJob(ctx, q)
	if err != nil {
		return nil, err
	}
	if !st.Terminal() {
		if st, err = c.WatchJob(ctx, st.ID, onEvent); err != nil {
			return nil, err
		}
	}
	if st.State != jobs.StateSucceeded {
		return nil, fmt.Errorf("simra: job %s %s: %s", st.ID, st.State, st.Error)
	}
	return c.JobResult(ctx, st.ID)
}
