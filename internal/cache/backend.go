package cache

import "sync/atomic"

// Backend is a remote cache tier: a byte-oriented key-value store shared
// by the nodes of a serving fleet. Implementations must be safe for
// concurrent use and best-effort — a Get that fails (network error,
// remote down) reports a miss, and a Put that fails is silently dropped.
// Correctness never depends on the backend: keys are content addresses,
// so the worst a lost entry costs is a recomputation, and the engine's
// determinism contract makes any stored value bit-identical to a fresh
// one.
type Backend interface {
	Get(k Key) ([]byte, bool)
	Put(k Key, v []byte)
}

// ErrorCounter is optionally implemented by backends that can tell a
// real miss from a degraded one (transport failure, bad status). Tiered
// surfaces the count as Stats.RemoteErrors so operators can distinguish
// a cold remote tier from a broken one.
type ErrorCounter interface {
	// Errors returns how many remote operations failed and silently
	// degraded to misses or dropped writes.
	Errors() int64
}

// MemBackend is an in-memory Backend: the fake remote tier used by tests
// and the store of a node's hosted tier, which holds what peers PUT into
// it (the node's own results stay in its local store). It is a thin
// view of a Cache holding []byte values, so a bounded one evicts
// least-recently-used entries under the same byte budget (values plus
// EntryOverhead) as the local tier. The zero value is not usable; create
// with NewMemBackend or NewBoundedMemBackend.
type MemBackend struct {
	c *Cache
}

// NewMemBackend returns an empty, unbounded in-memory backend.
func NewMemBackend() *MemBackend { return NewBoundedMemBackend(0) }

// NewBoundedMemBackend returns an empty in-memory backend holding at most
// capacity bytes (capacity <= 0 means unbounded; see New).
func NewBoundedMemBackend(capacity int64) *MemBackend {
	return &MemBackend{c: New(capacity)}
}

// Get returns the stored bytes for k.
func (m *MemBackend) Get(k Key) ([]byte, bool) {
	v, ok := m.c.Get(k)
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}

// Put stores v under k, copying it so callers may reuse the slice.
func (m *MemBackend) Put(k Key, v []byte) {
	cp := make([]byte, len(v))
	copy(cp, v)
	m.PutOwned(k, cp)
}

// PutOwned stores v itself under k, without a copy: the caller must
// never modify v again. A node's PUT route hands over the request body it
// just read.
func (m *MemBackend) PutOwned(k Key, v []byte) { m.c.Put(k, v, int64(len(v))) }

// Stats returns the backing cache's counters: Get hits and misses,
// evictions, and the entries and bytes held against the capacity.
func (m *MemBackend) Stats() Stats { return m.c.Stats() }

// Tiered layers a local Cache over an optional remote Backend for
// string-valued response entries: Get and Do check the local LRU first,
// then the remote tier, and only then compute. Singleflight coalescing is
// preserved — the remote lookup runs inside the local cache's inflight
// section, so concurrent identical requests still cost at most one remote
// round trip or one computation. A remote hit inside Do short-circuits
// the caller's compute function entirely: the caller observes a cached
// result (its compute never ran), which is what keeps a fleet-wide cache
// hit from counting as an execution. A nil Backend makes Tiered a
// transparent view of the local cache.
type Tiered struct {
	local        *Cache
	remote       Backend
	write        Backend
	remoteHits   atomic.Int64
	remoteMisses atomic.Int64
}

// NewTiered layers local over remote (remote may be nil). Fresh results
// are written through to write, which is remote itself on a node that
// uses another node's tier and nil on a node that reads a tier it hosts.
func NewTiered(local *Cache, remote, write Backend) *Tiered {
	return &Tiered{local: local, remote: remote, write: write}
}

// Get returns the value for k from the local tier, falling back to the
// remote tier (promoting a remote hit into the local LRU).
func (t *Tiered) Get(k Key) (any, bool) {
	if v, ok := t.local.Get(k); ok {
		return v, true
	}
	if t.remote == nil {
		return nil, false
	}
	b, ok := t.remote.Get(k)
	if !ok {
		t.remoteMisses.Add(1)
		return nil, false
	}
	t.remoteHits.Add(1)
	s := string(b)
	t.local.Put(k, s, int64(len(s)))
	return s, true
}

// Do returns the value for k with the Cache.Do contract (singleflight,
// error passthrough), consulting the remote tier before running compute.
// A successful computation is stored locally and written through to the
// write tier, if any; a remote hit is promoted locally without running
// compute.
func (t *Tiered) Do(k Key, compute func() (any, int64, error)) (any, error) {
	if t.remote == nil {
		return t.local.Do(k, compute)
	}
	return t.local.Do(k, func() (any, int64, error) {
		if b, ok := t.remote.Get(k); ok {
			t.remoteHits.Add(1)
			s := string(b)
			return s, int64(len(s)), nil
		}
		t.remoteMisses.Add(1)
		v, size, err := compute()
		if err == nil && t.write != nil {
			if s, ok := v.(string); ok {
				t.write.Put(k, []byte(s))
			}
		}
		return v, size, err
	})
}

// Stats returns the local cache's counters with the remote-tier counters
// filled in.
func (t *Tiered) Stats() Stats {
	s := t.local.Stats()
	s.RemoteHits = t.remoteHits.Load()
	s.RemoteMisses = t.remoteMisses.Load()
	if ec, ok := t.remote.(ErrorCounter); ok {
		s.RemoteErrors = ec.Errors()
	}
	return s
}
