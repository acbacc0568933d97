// Package cluster is the horizontal-serving layer of the harness: a
// coordinator that fans content-addressed engine shards out across a
// fleet of workers — in-process worker groups, remote peers over HTTP, or
// a mix — and merges the results in submission order.
//
// The determinism contract (DESIGN.md §2/§6) is what makes this safe:
// every shard's result is a pure function of its serialized spec, and its
// engine.ShardKey content-addresses that spec, so any worker may compute
// any shard and the merged output is bit-identical to a single-node run
// for every worker count and fleet composition. Shard placement uses
// rendezvous (highest-random-weight) hashing of the key across worker
// names, so repeated requests land on the same worker's warm cache;
// placement affects only locality, never bytes.
//
// Workers cache the encoded shard bytes in their local store and, when
// configured, share them through a cache.Backend — the fleet's shared
// tier — so a shard computed by one node is a hit on every node.
package cluster

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Shard-spec kinds on the wire: KindCore covers the sweep and scenario
// families (both dispatch core.ShardSpec), KindWorkload the workload
// family.
const (
	KindCore     = "core"
	KindWorkload = "workload"
)

// Request is one shard execution on the wire (POST /v1/internal/shard).
type Request struct {
	// Key is the shard's content hash in hex — the cache address the
	// result is stored under on every tier.
	Key string `json:"key"`
	// Kind discriminates Spec: KindCore or KindWorkload.
	Kind string `json:"kind"`
	// Spec is the serialized shard spec (core.ShardSpec or
	// workload.ShardSpec). A coordinator leaves it empty and sets Value;
	// a Peer fills it from Value just before the request leaves the
	// process.
	Spec json.RawMessage `json:"spec"`
	// Value is the shard spec itself (a core.ShardSpec or
	// workload.ShardSpec value), so in-process groups run it without a
	// JSON round trip. Workers must not mutate it: its slices are shared
	// with the caller.
	Value any `json:"-"`
	// RequestID propagates the originating request's ID into the worker's
	// audit trail (the X-Request-ID header carries it cross-node).
	RequestID string `json:"request_id,omitempty"`
}

// ParseKey decodes the hex key of a request.
func (r Request) ParseKey() (engine.ShardKey, error) {
	var k engine.ShardKey
	b, err := hex.DecodeString(r.Key)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("cluster: bad shard key %q", r.Key)
	}
	copy(k[:], b)
	return k, nil
}

// spec returns the request's spec value: Value when the request came
// from an in-process coordinator, otherwise its Spec bytes decoded.
func (r Request) spec() (any, error) {
	if r.Value != nil {
		return r.Value, nil
	}
	return decodeSpec(r.Kind, r.Spec)
}

// Worker executes shards. Group is the in-process implementation, Peer
// the HTTP client side. Exec returns the canonical JSON encoding of the
// shard's result; implementations must be safe for concurrent use.
type Worker interface {
	Name() string
	Exec(ctx context.Context, req Request) ([]byte, error)
}

// GroupStats is a point-in-time snapshot of one worker group's counters.
type GroupStats struct {
	// Requests counts Exec calls; Executions counts shards actually
	// computed (the rest were local or remote cache hits).
	Requests   int64
	Executions int64
}

// Group is an in-process worker: it executes shard specs on its own
// module pool, caches the encoded result bytes in its own local cache,
// and shares them through an optional remote backend. Each group is an
// independent cache domain — the in-process fleet tests exercise 1, 2
// and 4 groups to show placement never affects bytes.
type Group struct {
	name   string
	store  *cache.Cache
	remote cache.Backend
	pool   dram.ModulePool
	reqs   atomic.Int64
	execs  atomic.Int64
}

// NewGroup builds a worker group. store must be non-nil; remote and pool
// may be nil (no shared tier / fresh module instances per shard).
func NewGroup(name string, store *cache.Cache, remote cache.Backend, pool dram.ModulePool) *Group {
	return &Group{name: name, store: store, remote: remote, pool: pool}
}

// Name implements Worker.
func (g *Group) Name() string { return g.name }

// Stats returns the group's counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Requests: g.reqs.Load(), Executions: g.execs.Load()}
}

// storeKey namespaces a shard key for the group's local cache: the same
// cache may also hold decoded typed values under the raw shard key (the
// server's engine memos), so encoded bytes live under a distinct family.
func storeKey(k engine.ShardKey) cache.Key {
	return cache.NewHasher().Str("cluster/shard-bytes/v1").Str(string(k[:])).Sum()
}

// Exec implements Worker: local cache → shared tier → compute, with
// singleflight coalescing on the local store, writing a fresh result
// through to the shared tier under the raw shard key. A request carrying
// a Value runs it directly; one carrying only Spec bytes decodes them on
// a miss, and a spec that does not decode fails with ErrBadSpec.
func (g *Group) Exec(ctx context.Context, req Request) ([]byte, error) {
	g.reqs.Add(1)
	key, err := req.ParseKey()
	if err != nil {
		return nil, err
	}
	v, err := g.store.Do(storeKey(key), func() (any, int64, error) {
		if g.remote != nil {
			if b, ok := g.remote.Get(key); ok {
				return b, int64(len(b)), nil
			}
		}
		spec, err := req.spec()
		if err != nil {
			return nil, 0, err
		}
		g.execs.Add(1)
		b, err := execSpec(spec, g.pool)
		if err != nil {
			return nil, 0, err
		}
		if g.remote != nil {
			// b is cached immutable bytes from here on (the local store
			// hands it to every hit), so the shared tier can hold it too.
			cache.PutOwned(g.remote, key, b)
		}
		return b, int64(len(b)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// ErrBadSpec marks a wire shard spec that does not decode into its
// kind's spec type: the request is malformed, not the computation.
var ErrBadSpec = errors.New("cluster: bad shard spec")

// decodeSpec decodes the wire bytes of a shard spec of the given kind
// into its spec value. It only decodes; nothing executes.
func decodeSpec(kind string, raw json.RawMessage) (any, error) {
	var spec any
	var err error
	switch kind {
	case KindCore:
		var s core.ShardSpec
		err = json.Unmarshal(raw, &s)
		spec = s
	case KindWorkload:
		var s workload.ShardSpec
		err = json.Unmarshal(raw, &s)
		spec = s
	default:
		return nil, fmt.Errorf("cluster: unknown shard kind %q; valid: %s, %s",
			kind, KindCore, KindWorkload)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadSpec, kind, err)
	}
	return spec, nil
}

// execSpec executes one shard spec value and returns the canonical JSON
// encoding of its result.
func execSpec(spec any, pool dram.ModulePool) ([]byte, error) {
	switch s := spec.(type) {
	case core.ShardSpec:
		out, err := s.Exec(pool)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	case workload.ShardSpec:
		out, err := s.Exec(pool)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	default:
		return nil, fmt.Errorf("cluster: unknown shard spec type %T; valid: %s, %s",
			spec, KindCore, KindWorkload)
	}
}

// Stats is a point-in-time snapshot of a coordinator's counters.
type Stats struct {
	// Dispatched counts shards routed per worker name.
	Dispatched map[string]int64
	// Fallbacks counts shards rerouted to the local group after a remote
	// worker failed.
	Fallbacks int64
}

// Coordinator fans shards out across a worker fleet. It satisfies
// engine.Dispatcher (via WithRequestID) and is safe for concurrent use.
type Coordinator struct {
	workers    []Worker
	local      Worker // fallback target when a remote worker fails
	dispatched []atomic.Int64
	fallbacks  atomic.Int64
}

// New builds a coordinator over the fleet. local is the in-process
// fallback worker — shards whose assigned remote worker fails are retried
// on it, so a dead peer degrades throughput, not availability. local must
// be among workers (or nil to disable fallback).
func New(local Worker, workers ...Worker) *Coordinator {
	return &Coordinator{
		workers:    workers,
		local:      local,
		dispatched: make([]atomic.Int64, len(workers)),
	}
}

// Workers returns the fleet's worker names in placement order.
func (c *Coordinator) Workers() []string {
	names := make([]string, len(c.workers))
	for i, w := range c.workers {
		names[i] = w.Name()
	}
	return names
}

// Stats returns the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	s := Stats{Dispatched: make(map[string]int64, len(c.workers)), Fallbacks: c.fallbacks.Load()}
	for i, w := range c.workers {
		s.Dispatched[w.Name()] += c.dispatched[i].Load()
	}
	return s
}

// score is the rendezvous weight of (key, worker): FNV-1a over the key's
// leading bytes and the worker's name. Deterministic in the pair alone,
// so every node computes the same placement.
func score(key engine.ShardKey, name string) uint64 {
	h := fnv.New64a()
	h.Write(key[:8])
	h.Write([]byte(name))
	return h.Sum64()
}

// pick returns the index of the highest-scoring worker for the key, with
// name order as the deterministic tie-break.
func (c *Coordinator) pick(key engine.ShardKey) int {
	best := 0
	bestScore := score(key, c.workers[0].Name())
	for i := 1; i < len(c.workers); i++ {
		if s := score(key, c.workers[i].Name()); s > bestScore ||
			(s == bestScore && c.workers[i].Name() < c.workers[best].Name()) {
			best, bestScore = i, s
		}
	}
	return best
}

// ExecShard implements engine.Dispatcher without a request ID (jobs and
// in-process callers); WithRequestID stamps one on every request.
func (c *Coordinator) ExecShard(ctx context.Context, key engine.ShardKey, kind string, spec any) ([]byte, error) {
	return c.exec(ctx, key, kind, spec, "")
}

// WithRequestID returns a Dispatcher view that stamps the given request
// ID onto every shard request, propagating the originating HTTP request's
// identity into remote workers' audit trails. An empty ID returns the
// coordinator itself.
func (c *Coordinator) WithRequestID(id string) engine.Dispatcher {
	if id == "" {
		return c
	}
	return ridDispatcher{c: c, rid: id}
}

// ridDispatcher is a per-request Coordinator view carrying a request ID.
type ridDispatcher struct {
	c   *Coordinator
	rid string
}

func (d ridDispatcher) ExecShard(ctx context.Context, key engine.ShardKey, kind string, spec any) ([]byte, error) {
	return d.c.exec(ctx, key, kind, spec, d.rid)
}

// exec routes the spec to its rendezvous worker, and falls back to the
// local group when a remote worker fails. The spec travels as a value;
// only a Peer serializes it.
func (c *Coordinator) exec(ctx context.Context, key engine.ShardKey, kind string, spec any, rid string) ([]byte, error) {
	req := Request{
		Key:       hex.EncodeToString(key[:]),
		Kind:      kind,
		Value:     spec,
		RequestID: rid,
	}
	i := c.pick(key)
	w := c.workers[i]
	c.dispatched[i].Add(1)
	out, err := w.Exec(ctx, req)
	if err != nil && c.local != nil && w != c.local {
		c.fallbacks.Add(1)
		return c.local.Exec(ctx, req)
	}
	return out, err
}
