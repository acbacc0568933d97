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
// Workers cache each typed shard result in their node's store and, when
// configured, share its JSON through a cache.Backend — the fleet's shared
// tier — so a shard computed by one node is a hit on every node. JSON is
// only written and read where a shard leaves the process: the shared
// tier, a Peer's request and response, and the two internal routes.
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
	// JSON round trip, and their typed result comes back the same way.
	// Workers must not mutate it: its slices are shared with the caller.
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

// Worker executes shards. Group is the in-process implementation, Peer
// the HTTP client side. Exec returns the shard's typed result
// ([]core.GroupOutcome or []workload.Result); an in-process result is
// shared with the worker's store, so callers must not mutate it.
// Implementations must be safe for concurrent use.
type Worker interface {
	Name() string
	Exec(ctx context.Context, req Request) (any, error)
}

// GroupStats is a point-in-time snapshot of one worker group's counters.
type GroupStats struct {
	// Requests counts Exec calls; Executions counts shards actually
	// computed (the rest were local or remote cache hits).
	Requests   int64
	Executions int64
}

// Group is an in-process worker: it executes shard specs on its own
// module pool and caches each typed result in the store it is given,
// under the raw shard key: the entry the server's shard memos share. A
// server's groups all use its one store, so a node holds each shard once
// and placement across its groups picks only the module pool — the
// in-process fleet tests exercise 1, 2 and 4 groups to show placement
// never affects bytes.
type Group struct {
	name          string
	store         *cache.Cache
	remote, write cache.Backend
	pool          dram.ModulePool
	reqs          atomic.Int64
	execs         atomic.Int64
}

// NewGroup builds a worker group. store must be non-nil. remote is the
// shared tier read on a miss and write the one fresh results go to: the
// same tier, or nil on a node that hosts the tier it reads. remote,
// write and pool may be nil (fresh module instances per shard).
func NewGroup(name string, store *cache.Cache, remote, write cache.Backend, pool dram.ModulePool) *Group {
	return &Group{name: name, store: store, remote: remote, write: write, pool: pool}
}

// Name implements Worker.
func (g *Group) Name() string { return g.name }

// Stats returns the group's counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Requests: g.reqs.Load(), Executions: g.execs.Load()}
}

// Exec implements Worker: local store → shared tier → compute, with
// singleflight coalescing on the local store. JSON appears only at the
// shared tier: a hit there is decoded, and a fresh result is encoded
// only for a write tier. A request carrying a Value runs it directly;
// one carrying only Spec bytes decodes them on a miss, and a spec that
// does not decode fails with ErrBadSpec.
func (g *Group) Exec(ctx context.Context, req Request) (any, error) {
	g.reqs.Add(1)
	key, err := req.ParseKey()
	if err != nil {
		return nil, err
	}
	k, err := lookup(req.Kind)
	if err != nil {
		return nil, err
	}
	return g.store.Do(key, func() (any, int64, error) {
		if g.remote != nil {
			if b, ok := g.remote.Get(key); ok {
				if v, err := k.result(b); err == nil {
					return v, k.size(v), nil
				}
			}
		}
		spec := req.Value
		if spec == nil {
			if spec, err = k.spec(req.Spec); err != nil {
				return nil, 0, err
			}
		}
		g.execs.Add(1)
		v, err := k.exec(spec, g.pool)
		if err != nil {
			return nil, 0, err
		}
		if g.write != nil {
			if b, err := json.Marshal(v); err == nil {
				g.write.Put(key, b)
			}
		}
		return v, k.size(v), nil
	})
}

// ErrBadSpec marks a wire shard spec that does not decode into its
// kind's spec type: the request is malformed, not the computation.
var ErrBadSpec = errors.New("cluster: bad shard spec")

// errBadResult marks shard result bytes that do not decode into their
// kind's result type.
var errBadResult = errors.New("cluster: bad shard result")

// kind is one shard kind: the decoders of its spec and result JSON at
// the process edge, its spec's execution, and its result's byte charge.
type kind struct {
	spec, result func([]byte) (any, error)
	exec         func(spec any, pool dram.ModulePool) (any, error)
	size         func(any) int64
}

// kinds is the per-kind table every decode and execution goes through.
var kinds = map[string]kind{
	KindCore:     newKind[core.ShardSpec](CoreBytes),
	KindWorkload: newKind[workload.ShardSpec](WorkloadBytes),
}

// shardSpec is a spec type whose Exec returns results of type R.
type shardSpec[R any] interface {
	Exec(dram.ModulePool) (R, error)
}

// newKind builds the entry of spec type S.
func newKind[S shardSpec[R], R any](size func(R) int64) kind {
	return kind{
		spec:   decoder[S](ErrBadSpec),
		result: decoder[R](errBadResult),
		exec: func(spec any, pool dram.ModulePool) (any, error) {
			s, ok := spec.(S)
			if !ok {
				return nil, fmt.Errorf("cluster: shard spec of type %T, want %T", spec, s)
			}
			return s.Exec(pool)
		},
		size: func(v any) int64 { return size(v.(R)) },
	}
}

// decoder decodes wire bytes into a T; bytes that do not decode fail
// with bad. It only decodes; nothing executes.
func decoder[T any](bad error) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, fmt.Errorf("%w: %v", bad, err)
		}
		return v, nil
	}
}

// lookup returns the table entry of a shard kind.
func lookup(name string) (kind, error) {
	k, ok := kinds[name]
	if !ok {
		return k, fmt.Errorf("cluster: unknown shard kind %q; valid: %s, %s",
			name, KindCore, KindWorkload)
	}
	return k, nil
}

// CoreBytes is the byte charge of a core shard's result in a node's
// store, used by both the groups and the server's sweep memo, which fill
// the same entry.
func CoreBytes(outs []core.GroupOutcome) int64 {
	n := int64(64)
	for _, o := range outs {
		n += 96 + int64(8*len(o.Group.Rows))
	}
	return n
}

// WorkloadBytes is the byte charge of a workload shard's result, shared
// like CoreBytes.
func WorkloadBytes(rs []workload.Result) int64 { return 64 + int64(len(rs))*360 }

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
func (c *Coordinator) ExecShard(ctx context.Context, key engine.ShardKey, kind string, spec any) (any, error) {
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

func (d ridDispatcher) ExecShard(ctx context.Context, key engine.ShardKey, kind string, spec any) (any, error) {
	return d.c.exec(ctx, key, kind, spec, d.rid)
}

// exec routes the spec to its rendezvous worker, and falls back to the
// local group when a remote worker fails. The spec travels as a value;
// only a Peer serializes it.
func (c *Coordinator) exec(ctx context.Context, key engine.ShardKey, kind string, spec any, rid string) (any, error) {
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
