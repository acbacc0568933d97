package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func key(parts ...string) Key {
	h := NewHasher()
	for _, p := range parts {
		h.Str(p)
	}
	return h.Sum()
}

func TestHasherFieldBoundaries(t *testing.T) {
	if key("ab", "c") == key("a", "bc") {
		t.Fatal("string concatenation ambiguity: (ab,c) and (a,bc) collide")
	}
	if key("a") == key("a", "") {
		t.Fatal("field count ambiguity: (a) and (a,\"\") collide")
	}
	if NewHasher().U64(1).Sum() == NewHasher().Int(1).Sum() {
		t.Fatal("type tag ambiguity: U64(1) and Int(1) collide")
	}
	if NewHasher().F64(0).Sum() == NewHasher().U64(0).Sum() {
		t.Fatal("type tag ambiguity: F64(0) and U64(0) collide")
	}
	if key("a") != key("a") {
		t.Fatal("hashing is not deterministic")
	}
}

func TestGetPutStats(t *testing.T) {
	c := New(0)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("a"), "va", 10)
	v, ok := c.Get(key("a"))
	if !ok || v.(string) != "va" {
		t.Fatalf("Get(a) = %v, %v; want va, true", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 10+EntryOverhead {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry, 10+EntryOverhead bytes", s)
	}
	// Replacing a key adjusts bytes rather than leaking the old size.
	c.Put(key("a"), "va2", 4)
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 4+EntryOverhead {
		t.Fatalf("after replace: %+v; want 1 entry, 4+EntryOverhead bytes", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Room for 100 value bytes in two entries.
	c := New(100 + 2*EntryOverhead)
	c.Put(key("a"), "a", 60)
	c.Put(key("b"), "b", 30)
	// Touch a so b becomes least recently used.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put(key("c"), "c", 40) // 130 > 100 value bytes: evicts b (LRU), keeps a+c
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.Get(key("c")); !ok {
		t.Fatal("c evicted immediately after insert")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 100+2*EntryOverhead {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries, 100+2*EntryOverhead bytes", s)
	}
}

func TestOversizeEntryNotStored(t *testing.T) {
	c := New(10)
	c.Put(key("big"), "big", 11)
	if _, ok := c.Get(key("big")); ok {
		t.Fatal("entry larger than the whole budget was stored")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stats = %+v; want empty cache", s)
	}
}

// TestDoCoalesces is the coalescing contract: N concurrent Do calls with
// the same key execute compute exactly once and all observe its result.
func TestDoCoalesces(t *testing.T) {
	c := New(0)
	const n = 16
	gate := make(chan struct{})
	execs := 0
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(key("k"), func() (any, int64, error) {
				execs++ // safe: only one compute may run
				<-gate
				return "value", 5, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the single execution started and the other callers have
	// coalesced onto it, then release.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.Executions == 1 && s.Coalesced == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescing never converged: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if execs != 1 {
		t.Fatalf("compute ran %d times; want exactly 1", execs)
	}
	for i, v := range results {
		if v.(string) != "value" {
			t.Fatalf("caller %d got %v; want value", i, v)
		}
	}
	// A later Do is a pure cache hit: still one execution.
	if _, err := c.Do(key("k"), func() (any, int64, error) {
		t.Fatal("compute ran on a cached key")
		return nil, 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Executions != 1 {
		t.Fatalf("executions = %d after cached Do; want 1", s.Executions)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	if _, err := c.Do(key("k"), func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	v, err := c.Do(key("k"), func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry after error = %v, %v; want ok", v, err)
	}
	s := c.Stats()
	if s.Executions != 2 || s.Errors != 1 {
		t.Fatalf("stats = %+v; want 2 executions, 1 error", s)
	}
}

// TestDoPanicDoesNotWedgeKey pins the cleanup contract: a panicking
// compute must propagate to its caller, release any coalesced waiters
// with an error, and leave the key usable.
func TestDoPanicDoesNotWedgeKey(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do(key("k"), func() (any, int64, error) {
			close(started)
			// Give the waiter time to coalesce before panicking.
			for {
				if c.Stats().Coalesced == 1 {
					panic("boom")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}()
	<-started
	go func() {
		_, err := c.Do(key("k"), func() (any, int64, error) { return "fresh", 1, nil })
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		// The waiter either coalesced onto the panicked call (error) or
		// arrived after cleanup and computed fresh (nil); both prove the
		// key is not wedged.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung: panic left the inflight entry registered")
	}
	v, err := c.Do(key("k"), func() (any, int64, error) { return "ok", 2, nil })
	if err != nil {
		t.Fatalf("key unusable after panic: %v", err)
	}
	if s, _ := v.(string); s != "ok" && s != "fresh" {
		t.Fatalf("unexpected value %v after panic recovery", v)
	}
}

func TestTypedAdapter(t *testing.T) {
	c := New(100 + EntryOverhead)
	ty := NewTyped(c, func(s []int) int64 { return int64(8 * len(s)) })
	ty.Put(key("v"), []int{1, 2, 3})
	got, ok := ty.Get(key("v"))
	if !ok || len(got) != 3 || got[2] != 3 {
		t.Fatalf("typed round-trip = %v, %v", got, ok)
	}
	if s := c.Stats(); s.Bytes != 24+EntryOverhead {
		t.Fatalf("bytes = %d; want 24 from size func plus EntryOverhead", s.Bytes)
	}
	// A value of the wrong dynamic type under the key reads as a miss.
	c.Put(key("v"), "not-a-slice", 1)
	if _, ok := ty.Get(key("v")); ok {
		t.Fatal("typed Get returned a foreign value")
	}
}

// TestEntryOverheadCoversHeap measures the heap a cache holds per
// resident entry, filled with 8-byte values at several sizes (the map's
// share per entry is largest just after it grows, as at 900 and 1800
// entries), and requires
// EntryOverhead to cover everything beyond the values' own bytes, so a
// byte budget bounds what a cache really holds.
func TestEntryOverheadCoversHeap(t *testing.T) {
	const valueBytes = 8
	keys := make([]Key, 12000)
	for i := range keys {
		keys[i] = NewHasher().Int(i).Sum()
	}
	var worst float64
	for _, n := range []int{900, 1700, 1800, 3000, 3600, 12000} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(0)
		for _, k := range keys[:n] {
			c.Put(k, make([]byte, valueBytes), valueBytes)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perEntry := float64(after.HeapAlloc-before.HeapAlloc)/float64(n) - valueBytes
		runtime.KeepAlive(c)
		t.Logf("%5d entries: %.1f B of bookkeeping per entry", n, perEntry)
		worst = max(worst, perEntry)
	}
	if worst > EntryOverhead {
		t.Fatalf("a resident entry holds %.1f B beyond its value; EntryOverhead is %d", worst, EntryOverhead)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprint(i % 17))
				switch i % 3 {
				case 0:
					c.Put(k, i, int64(i%97))
				case 1:
					c.Get(k)
				default:
					c.Do(k, func() (any, int64, error) { return i, 8, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes > 1<<10 {
		t.Fatalf("bytes %d exceed capacity under concurrency", s.Bytes)
	}
}
