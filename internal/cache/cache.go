package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits and Misses count Get outcomes (Do counts its fast-path lookup
	// the same way).
	Hits, Misses int64
	// Executions counts compute functions actually run by Do; Coalesced
	// counts Do calls that waited on a concurrent identical execution
	// instead of running their own.
	Executions, Coalesced int64
	// Errors counts failed executions (their results are not cached).
	Errors int64
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64
	// RemoteHits and RemoteMisses count remote-tier lookups by a Tiered
	// store (always zero on a plain Cache). RemoteErrors counts remote
	// operations that failed and degraded to misses or dropped writes —
	// reported by backends implementing ErrorCounter, so a down cache
	// host is visible instead of masquerading as a cold cache.
	RemoteHits, RemoteMisses, RemoteErrors int64
	// Entries and Bytes describe the current contents; Capacity is the
	// configured byte budget (0 = unbounded). Bytes counts every entry's
	// reported value size plus EntryOverhead, so it is the heap the
	// entries hold, bookkeeping included.
	Entries  int
	Bytes    int64
	Capacity int64
}

// entry is one resident cache line.
type entry struct {
	key   Key
	value any
	size  int64 // reported value size; the entry costs size + EntryOverhead
}

// EntryOverhead is the heap one resident entry costs beyond its value's
// reported size: the *entry, its list.Element, its share of the map's
// slots and the interface box of the stored value. Every entry is charged
// it against the byte budget, so a budget bounds the bytes a cache holds,
// not only its values. On Go 1.24/amd64 a cache of 8-byte values measures
// 194-252 B per entry beyond the values' bytes (260 B under -race); the
// map's share is largest just after it grows. TestEntryOverheadCoversHeap
// pins that the constant covers the measurement.
const EntryOverhead = 288

// call is one in-flight Do execution that later arrivals coalesce onto.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a content-addressed memoization store: a byte-bounded LRU map
// with singleflight request coalescing. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	lru      *list.List // front = most recently used; values are *entry
	entries  map[Key]*list.Element
	inflight map[Key]*call
	stats    Stats
}

// New returns a cache bounded to capacity bytes (capacity <= 0 means
// unbounded): each entry counts its caller-reported size (see Put) plus
// EntryOverhead.
func New(capacity int64) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(k)
}

func (c *Cache) getLocked(k Key) (any, bool) {
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry).value, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores v under k, reporting its size for the byte budget. An entry
// whose size plus EntryOverhead exceeds the whole budget is not stored.
// Storing evicts least-recently-used entries until the budget holds.
func (c *Cache) Put(k Key, v any, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v, size)
}

func (c *Cache) putLocked(k Key, v any, size int64) {
	if c.capacity > 0 && size+EntryOverhead > c.capacity {
		return
	}
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.value, e.size = v, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[k] = c.lru.PushFront(&entry{key: k, value: v, size: size})
		c.bytes += size + EntryOverhead
	}
	for c.capacity > 0 && c.bytes > c.capacity {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= e.size + EntryOverhead
		c.stats.Evictions++
	}
}

// Do returns the value for k, computing it at most once across concurrent
// callers: the first caller with a given key runs compute while later
// identical callers block and share its result (singleflight). Successful
// results are stored with the size compute reports; errors are returned to
// every coalesced caller and not cached.
func (c *Cache) Do(k Key, compute func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if v, ok := c.getLocked(k); ok {
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.inflight[k]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[k] = cl
	c.stats.Executions++
	c.mu.Unlock()

	// The cleanup must run even if compute panics: otherwise the key's
	// inflight entry would never clear and every waiter (present and
	// future) would block forever. A panic propagates to this caller only;
	// coalesced waiters observe it as a plain error.
	var v any
	var size int64
	var err error
	finished := false
	defer func() {
		if !finished {
			err = fmt.Errorf("cache: compute panicked")
			cl.err = err
		}
		c.mu.Lock()
		delete(c.inflight, k)
		if err != nil {
			c.stats.Errors++
		} else {
			c.putLocked(k, v, size)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	v, size, err = compute()
	cl.val, cl.err = v, err
	finished = true
	return v, err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.Capacity = c.capacity
	return s
}

// Typed adapts a Cache to a statically typed view, satisfying
// engine.Memo[T]: values round-trip through the cache's any-typed store,
// and sizes come from the size function given at construction.
type Typed[T any] struct {
	c    *Cache
	size func(T) int64
}

// NewTyped wraps c; size reports the byte cost of a value for the LRU
// budget (nil sizes every value as 1 byte, making the budget an entry
// count).
func NewTyped[T any](c *Cache, size func(T) int64) *Typed[T] {
	if size == nil {
		size = func(T) int64 { return 1 }
	}
	return &Typed[T]{c: c, size: size}
}

// Get returns the cached value for k.
func (t *Typed[T]) Get(k Key) (T, bool) {
	v, ok := t.c.Get(k)
	if !ok {
		var zero T
		return zero, false
	}
	tv, ok := v.(T)
	if !ok {
		// A foreign value under the same key means the keying scheme is
		// broken; fail closed as a miss.
		var zero T
		return zero, false
	}
	return tv, true
}

// Put stores v under k.
func (t *Typed[T]) Put(k Key, v T) { t.c.Put(k, v, t.size(v)) }
