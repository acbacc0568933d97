package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/engine"
	"repro/internal/jobs"
)

// bind validates the envelope and binds it to its family's pipeline,
// normalizing the payload in place with the family's 422 contract. The
// key is the job's content address, shared with the blocking route.
func (q *JobRequest) bind(s *Server) (cache.Key, kindExec, error) {
	f, err := envelopeFamily(q.Kind, q, func(f *family) slot[JobRequest] { return f.job })
	if err != nil {
		return cache.Key{}, nil, err
	}
	key, exec, err := f.job.bind(s, q)
	if err == nil && q.Webhook != nil && q.Webhook.URL == "" {
		err = fmt.Errorf("webhook needs a url")
	}
	return key, exec, err
}

// jobID derives the job identifier from the kind and content key.
func jobID(kind string, key cache.Key) string {
	return kind + "-" + cache.KeyString(key)
}

// jobExec wraps a family pipeline for the job tier: it shares the
// response cache and coalesces with blocking requests through the same
// store.Do, incrementing the kind's executions counter only when this
// call actually computes — so a job whose result another request already
// produced (or is producing) completes without an execution, and the
// second identical submission leaves executions_total unchanged. Unlike
// the blocking path, no inflight slot is claimed: the job worker pool is
// the job tier's concurrency bound.
func (s *Server) jobExec(kind string, key cache.Key, run kindExec) jobs.Exec {
	return func(ctx context.Context, st *engine.Stats) (string, error) {
		v, err := s.tier.Do(key, func() (any, int64, error) {
			s.counters[kind].executions.Add(1)
			out, err := run(ctx, st, s.pool)
			if err != nil {
				return nil, 0, err
			}
			return out, int64(len(out)), nil
		})
		if err != nil {
			return "", err
		}
		return v.(string), nil
	}
}

// submit enqueues one bound job request (the shared path of the HTTP
// handler and the in-process facade).
func (s *Server) submit(q JobRequest, key cache.Key, run kindExec) (*jobs.Job, bool, error) {
	req := jobs.Request{
		ID:      jobID(q.Kind, key),
		Kind:    q.Kind,
		Exec:    s.jobExec(q.Kind, key, run),
		Webhook: q.Webhook,
	}
	if v, ok := s.tier.Get(key); ok {
		out := v.(string)
		req.Cached = &out
	}
	return s.jobs.Submit(req)
}

// SubmitJob validates and submits a job in-process (the facade's
// surface); the HTTP handler shares its path.
func (s *Server) SubmitJob(q JobRequest) (st jobs.Status, existing bool, err error) {
	key, run, err := q.bind(s)
	if err != nil {
		return jobs.Status{}, false, err
	}
	j, existing, err := s.submit(q, key, run)
	if err != nil {
		return jobs.Status{}, false, err
	}
	return j.Status(), existing, nil
}

// JobStatus returns a job's current status by ID.
func (s *Server) JobStatus(id string) (jobs.Status, error) {
	j, err := s.jobs.Get(id)
	if err != nil {
		return jobs.Status{}, err
	}
	return j.Status(), nil
}

// WaitJob blocks until the job is terminal or ctx is done.
func (s *Server) WaitJob(ctx context.Context, id string) (jobs.Status, error) {
	return s.jobs.Wait(ctx, id)
}

// handleSubmitJob is POST /v1/jobs: validate synchronously (the blocking
// routes' 400/422 contract), then either complete instantly from the
// response cache or enqueue. 202 for queued work, 200 when the job is
// already terminal or deduped onto an existing one.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var q JobRequest
	if err := decodeJSON(r, &q); err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	key, run, err := q.bind(s)
	if err != nil {
		writeError(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	j, existing, err := s.submit(q, key, run)
	if err != nil {
		if errors.Is(err, jobs.ErrBusy) {
			err = fmt.Errorf("job queue full: %w", errBusy)
		}
		writeError(w, r, err, http.StatusInternalServerError)
		return
	}
	st := j.Status()
	code := http.StatusAccepted
	if existing || st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleListJobs is GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.Jobs()})
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleCancelJob is DELETE /v1/jobs/{id}.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult is GET /v1/jobs/{id}/result: the raw rendered bytes,
// byte-identical to the blocking route's ?raw=1 response for the same
// request. Columnar job results (the submitted request asked for
// "format":"columnar") are served with the columnar media type and honor
// the same ?batch / ?batch_rows continuation parameters as the blocking
// routes; an explicit ?format= parameter must match the format the job
// was submitted with (422 otherwise). A job still in flight is 202, a
// failed one 500, a canceled one 410.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err, http.StatusNotFound)
		return
	}
	st := j.Status()
	switch st.State {
	case jobs.StateSucceeded:
		out, _ := j.Output()
		columnar := strings.HasPrefix(out, colenc.Magic)
		if want := r.URL.Query().Get("format"); want != "" {
			if err := charexp.CheckFormat(want); err != nil {
				writeError(w, r, err, http.StatusUnprocessableEntity)
				return
			}
			if (want == charexp.FormatColumnar) != columnar {
				got := "text or csv"
				if columnar {
					got = charexp.FormatColumnar
				}
				writeError(w, r, fmt.Errorf(
					"job %s was submitted with a %s format; resubmit with \"format\":%q to get %s output",
					st.ID, got, want, want), http.StatusUnprocessableEntity)
				return
			}
		}
		if columnar {
			writeColumnar(w, r, out, map[string]string{
				"X-Simra-Job":    st.ID,
				"X-Simra-Cached": fmt.Sprint(st.Cached),
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Simra-Job", st.ID)
		w.Header().Set("X-Simra-Cached", fmt.Sprint(st.Cached))
		io.WriteString(w, out)
	case jobs.StateFailed:
		writeError(w, r, fmt.Errorf("job failed: %s", st.Error), http.StatusInternalServerError)
	case jobs.StateCanceled:
		writeError(w, r, fmt.Errorf("job canceled"), http.StatusGone)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// lastEventID parses the subscriber's replay cursor: the standard
// Last-Event-ID header (set by reconnecting EventSource clients), with a
// last_event_id query fallback for plain HTTP clients.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// sseClient resolves the identity the per-client SSE cap keys on: the
// authenticated bearer client when auth is on, the remote address host
// otherwise (with auth off every request is "anonymous", which would
// collapse the per-client cap back into a global one).
func (s *Server) sseClient(r *http.Request) string {
	if client := ClientFrom(r.Context()); len(s.cfg.AuthTokens) > 0 && client != "" {
		return client
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's progress stream
// as Server-Sent Events. Reconnects resume from Last-Event-ID; beyond
// the per-client cap or the global ceiling the request sheds with 503 +
// Retry-After; the stream ends after the "done" event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err, http.StatusNotFound)
		return
	}
	release, reason, ok := s.jobs.AcquireSSE(s.sseClient(r))
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, r, fmt.Errorf("event stream connection cap reached (%s)", reason), http.StatusServiceUnavailable)
		return
	}
	defer release()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, fmt.Errorf("streaming unsupported"), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Simra-Job", j.ID())
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	after := lastEventID(r)
	for {
		evs, changed, closed := j.EventsSince(after)
		for _, e := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data)
			after = e.ID
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}
