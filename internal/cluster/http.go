package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// ShardPath is the internal shard-execution route every node serves.
const ShardPath = "/v1/internal/shard"

// CachePathPrefix is the internal shared-tier route: GET/PUT
// {prefix}{hex key}.
const CachePathPrefix = "/v1/internal/cache/"

// Peer is the HTTP client side of a remote worker: it executes shards by
// POSTing them to the peer's internal shard route, authenticated with the
// fleet's cluster token and carrying the originating request's ID.
type Peer struct {
	base   string
	token  string
	client *http.Client
}

// NewPeer builds a worker client for the peer at base (scheme://host:port;
// trailing slashes are trimmed). token is the fleet's shared cluster
// bearer token ("" = unauthenticated fleet).
func NewPeer(base, token string) *Peer {
	return &Peer{
		base:   strings.TrimRight(base, "/"),
		token:  token,
		client: &http.Client{Timeout: 5 * time.Minute},
	}
}

// Name implements Worker: the peer's base URL, which doubles as its
// stable placement name.
func (p *Peer) Name() string { return p.base }

// Exec implements Worker over HTTP. A request that carries its spec as
// a Value is serialized here, where its bytes leave the process.
func (p *Peer) Exec(ctx context.Context, req Request) ([]byte, error) {
	if len(req.Spec) == 0 && req.Value != nil {
		spec, err := json.Marshal(req.Value)
		if err != nil {
			return nil, fmt.Errorf("cluster: encode %s spec: %w", req.Kind, err)
		}
		req.Spec = spec
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if p.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+p.token)
	}
	if req.RequestID != "" {
		hreq.Header.Set("X-Request-ID", req.RequestID)
	}
	resp, err := p.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", p.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: worker %s: %s: %s",
			p.base, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// Health probes the peer's liveness endpoint.
func (p *Peer) Health(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// RemoteCache is a cache.Backend over HTTP: the client side of a node
// hosting the fleet's shared tier. Per the Backend contract it is
// best-effort — a failure degrades to a miss (Get) or a dropped write
// (Put), never an error, so a down cache host costs recomputation, not
// availability. But degradation is not silence: only a 404 is a true
// miss; transport errors, unexpected statuses and truncated bodies
// increment the error counter (surfaced as
// simra_cache_remote_errors_total) and fire OnError, so operators see a
// down or misconfigured cache host instead of a quietly cold fleet.
type RemoteCache struct {
	base   string
	token  string
	client *http.Client
	errors atomic.Int64
	// OnError, when non-nil, observes every degraded-to-miss failure (op
	// is "get" or "put"). Set it before the first use; it must not block.
	OnError func(op string, err error)
}

// NewRemoteCache builds a shared-tier client for the host at base. token
// is the fleet's cluster bearer token ("" = unauthenticated fleet).
func NewRemoteCache(base, token string) *RemoteCache {
	return &RemoteCache{
		base:   strings.TrimRight(base, "/"),
		token:  token,
		client: &http.Client{Timeout: 10 * time.Second},
	}
}

func (r *RemoteCache) request(method string, k cache.Key, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, r.base+CachePathPrefix+cache.KeyString(k), body)
	if err != nil {
		return nil, err
	}
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	return req, nil
}

// fail records one degraded remote operation: counted, reported to the
// hook, and turned into a miss/dropped write by the caller.
func (r *RemoteCache) fail(op string, err error) {
	r.errors.Add(1)
	if r.OnError != nil {
		r.OnError(op, err)
	}
}

// Errors implements cache.ErrorCounter: how many remote operations
// failed and silently degraded to misses or dropped writes.
func (r *RemoteCache) Errors() int64 { return r.errors.Load() }

// Get implements cache.Backend. A 404 from the cache host is a true
// miss; every other failure counts as a remote error before degrading.
func (r *RemoteCache) Get(k cache.Key) ([]byte, bool) {
	req, err := r.request(http.MethodGet, k, nil)
	if err != nil {
		r.fail("get", err)
		return nil, false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail("get", err)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		r.fail("get", fmt.Errorf("cluster: cache host %s: %s", r.base, resp.Status))
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		r.fail("get", fmt.Errorf("cluster: cache host %s: %w", r.base, err))
		return nil, false
	}
	return data, true
}

// Put implements cache.Backend. Failed writes are dropped per the
// Backend contract, but counted as remote errors first.
func (r *RemoteCache) Put(k cache.Key, v []byte) {
	req, err := r.request(http.MethodPut, k, bytes.NewReader(v))
	if err != nil {
		r.fail("put", err)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		r.fail("put", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.fail("put", fmt.Errorf("cluster: cache host %s: %s", r.base, resp.Status))
	}
}
