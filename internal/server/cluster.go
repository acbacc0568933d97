package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// APIRevision names the served API surface (docs/api-spec.md documents
// it); /v1/version reports it so clients can pin against it.
const APIRevision = "v1"

// VersionInfo is the GET /v1/version document.
type VersionInfo struct {
	// Service is the serving binary's identity.
	Service string `json:"service"`
	// APIRevision is the served API surface ("v1").
	APIRevision string `json:"api_revision"`
	// GoVersion is the toolchain the binary was built with.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit the binary was built from (empty outside
	// a VCS build).
	Revision string `json:"revision,omitempty"`
	// Dirty reports uncommitted changes in the build's working tree.
	Dirty bool `json:"dirty,omitempty"`
}

// Version reports the build and API revision of the running binary.
func Version() VersionInfo {
	v := VersionInfo{
		Service:     "simra-serve",
		APIRevision: APIRevision,
		GoVersion:   runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				v.Revision = kv.Value
			case "vcs.modified":
				v.Dirty = kv.Value == "true"
			}
		}
	}
	return v
}

// handleVersion is GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}

// role names this node's place in the fleet: "coordinator" when it fans
// shards out (in-process groups count), "worker" when it only serves
// shard executions for someone else's fleet, "single" otherwise.
func (s *Server) role() string {
	switch {
	case s.coord != nil:
		return "coordinator"
	case s.cfg.CachePeer != "":
		return "worker"
	default:
		return "single"
	}
}

// PeerHealth is one peer's probe outcome in the Health document.
type PeerHealth struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// Health is the GET /healthz document: liveness, the node's cluster role
// and, on a coordinator, each peer's probed health. Status stays the
// leading field so existing `"status":"ok"` substring probes keep working.
type Health struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Role          string       `json:"role"`
	Groups        int          `json:"groups"`
	Peers         []PeerHealth `json:"peers,omitempty"`
}

// handleHealth is GET /healthz: liveness plus the node's cluster role and
// — on a coordinator — each peer's probed health. A degraded peer never
// degrades this node's status: the coordinator falls back to local
// execution, so it stays "ok" and reports the peer individually.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		UptimeSeconds: math.Round(time.Since(s.start).Seconds()),
		Role:          s.role(),
		Groups:        len(s.groups),
	}
	if len(s.peers) > 0 {
		h.Peers = make([]PeerHealth, len(s.peers))
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for i, p := range s.peers {
			wg.Add(1)
			go func(i int, p *cluster.Peer) {
				defer wg.Done()
				ph := PeerHealth{Name: p.Name(), Healthy: true}
				if err := p.Health(ctx); err != nil {
					ph.Healthy = false
					ph.Error = err.Error()
				}
				h.Peers[i] = ph
			}(i, p)
		}
		wg.Wait()
	}
	writeJSON(w, http.StatusOK, h)
}

// handleInternalShard is POST /v1/internal/shard: one shard execution on
// behalf of a coordinator. Execution is bounded by the shard-slot pool
// (independent of the public MaxInflight bound) and runs through the
// worker group's local-cache → shared-tier → compute path, so repeated
// shards are cache hits here too.
func (s *Server) handleInternalShard(w http.ResponseWriter, r *http.Request) {
	var req cluster.Request
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	if _, err := req.ParseKey(); err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	select {
	case s.shardSlots <- struct{}{}:
	case <-r.Context().Done():
		writeError(w, r, r.Context().Err(), http.StatusServiceUnavailable)
		return
	}
	defer func() { <-s.shardSlots }()
	v, err := s.worker.Exec(r.Context(), req)
	var out []byte
	if err == nil {
		out, err = json.Marshal(v)
	}
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case req.Kind != cluster.KindCore && req.Kind != cluster.KindWorkload:
			status = http.StatusUnprocessableEntity
		case errors.Is(err, cluster.ErrBadSpec):
			status = http.StatusBadRequest
		}
		writeError(w, r, err, status)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out)
}

// cacheKeyParam decodes the {key} path element of the internal cache
// routes.
func cacheKeyParam(r *http.Request) (cache.Key, error) {
	var k cache.Key
	b, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("bad cache key %q", r.PathValue("key"))
	}
	copy(k[:], b)
	return k, nil
}

// handleCacheGet is GET /v1/internal/cache/{key}: this node's hosted
// shared-tier store, then its own results, encoded as they leave the
// process. Peers configured with -cache-peer pointing here read
// fleet-shared entries from it.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	k, err := cacheKeyParam(r)
	if err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	b, ok := s.hosted.Get(k)
	if !ok {
		b, ok = s.own(k)
	}
	if !ok {
		writeError(w, r, fmt.Errorf("cache entry not found"), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}

// own returns this node's own result under k from its store, in one
// lookup that counts in the store's hit/miss counters: a response is a
// string under its key, and a shard's typed result sits under its raw
// key, the entry the worker groups and the shard memos share, encoded
// here as /v1/internal/shard would answer it.
func (s *Server) own(k cache.Key) ([]byte, bool) {
	v, _ := s.store.Get(k)
	switch v := v.(type) {
	case string:
		return []byte(v), true
	case []core.GroupOutcome, []workload.Result:
		b, err := json.Marshal(v)
		return b, err == nil
	}
	return nil, false
}

// handleCachePut is PUT /v1/internal/cache/{key}.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	k, err := cacheKeyParam(r)
	if err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	s.hosted.PutOwned(k, b) // b is this request's own fresh buffer
	w.WriteHeader(http.StatusNoContent)
}
