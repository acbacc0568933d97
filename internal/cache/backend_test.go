package cache

import (
	"errors"
	"testing"
)

func TestMemBackend(t *testing.T) {
	m := NewMemBackend()
	k := NewHasher().Str("k").Sum()
	if _, ok := m.Get(k); ok {
		t.Fatal("empty backend reported a hit")
	}
	v := []byte("value")
	m.Put(k, v)
	v[0] = 'X' // Put must have copied
	got, ok := m.Get(k)
	if !ok || string(got) != "value" {
		t.Fatalf("Get = (%q, %v); want the un-mutated value", got, ok)
	}
	if n := m.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d; want 1", n)
	}
}

// TestMemBackendPutOwned: the hand-off stores the very slice it is given,
// while Put keeps copying.
func TestMemBackendPutOwned(t *testing.T) {
	m := NewMemBackend()
	owned, copied := NewHasher().Str("owned").Sum(), NewHasher().Str("copied").Sum()
	v := []byte("value")
	m.PutOwned(owned, v)
	got, ok := m.Get(owned)
	if !ok || &got[0] != &v[0] {
		t.Fatal("PutOwned stored a copy; want the given slice")
	}
	m.Put(copied, v)
	if got, _ := m.Get(copied); &got[0] == &v[0] {
		t.Fatal("Put stored the caller's slice; want a copy")
	}
}

func TestTieredNilBackendIsTransparent(t *testing.T) {
	local := New(0)
	tiered := NewTiered(local, nil, nil)
	k := NewHasher().Str("k").Sum()
	calls := 0
	v, err := tiered.Do(k, func() (any, int64, error) {
		calls++
		return "out", 3, nil
	})
	if err != nil || v.(string) != "out" || calls != 1 {
		t.Fatalf("Do = (%v, %v), calls %d", v, err, calls)
	}
	if got, ok := tiered.Get(k); !ok || got.(string) != "out" {
		t.Fatalf("Get = (%v, %v)", got, ok)
	}
	if st := tiered.Stats(); st.RemoteHits != 0 || st.RemoteMisses != 0 {
		t.Fatalf("nil backend counted remote traffic: %+v", st)
	}
}

// TestTieredRemoteHitSkipsCompute pins the property the fleet-wide
// cache-hit metric rests on: a remote hit must resolve Do without ever
// invoking the caller's compute function.
func TestTieredRemoteHitSkipsCompute(t *testing.T) {
	remote := NewMemBackend()
	k := NewHasher().Str("k").Sum()
	remote.Put(k, []byte("fleet"))
	tiered := NewTiered(New(0), remote, remote)
	v, err := tiered.Do(k, func() (any, int64, error) {
		t.Fatal("compute ran despite a remote hit")
		return nil, 0, nil
	})
	if err != nil || v.(string) != "fleet" {
		t.Fatalf("Do = (%v, %v); want the remote value", v, err)
	}
	if st := tiered.Stats(); st.RemoteHits != 1 {
		t.Fatalf("remote hits = %d; want 1", st.RemoteHits)
	}
	// Promoted locally: a second Do is a pure local hit.
	if _, err := tiered.Do(k, func() (any, int64, error) {
		t.Fatal("compute ran despite a local promotion")
		return nil, 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := tiered.Stats(); st.RemoteHits != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v; want one remote hit then one local hit", st)
	}
}

func TestTieredWriteThrough(t *testing.T) {
	remote := NewMemBackend()
	tiered := NewTiered(New(0), remote, remote)
	k := NewHasher().Str("k").Sum()
	if _, err := tiered.Do(k, func() (any, int64, error) {
		return "computed", 8, nil
	}); err != nil {
		t.Fatal(err)
	}
	if b, ok := remote.Get(k); !ok || string(b) != "computed" {
		t.Fatalf("remote after write-through = (%q, %v); want the computed value", b, ok)
	}
	if st := tiered.Stats(); st.RemoteMisses != 1 {
		t.Fatalf("remote misses = %d; want 1 (the pre-compute probe)", st.RemoteMisses)
	}
	// A second tier over the same backend sees the value without
	// computing: the fleet-wide hit.
	other := NewTiered(New(0), remote, remote)
	v, ok := other.Get(k)
	if !ok || v.(string) != "computed" {
		t.Fatalf("sibling tier Get = (%v, %v); want the shared value", v, ok)
	}
}

// TestTieredReadOnly: a tier with no write target — a node reading the
// tier it hosts — still finds what others put there, and keeps its own
// fresh results only in its local cache.
func TestTieredReadOnly(t *testing.T) {
	remote := NewMemBackend()
	shared := NewHasher().Str("shared").Sum()
	remote.Put(shared, []byte("peer"))
	tiered := NewTiered(New(0), remote, nil)
	if v, ok := tiered.Get(shared); !ok || v.(string) != "peer" {
		t.Fatalf("Get = (%v, %v); want the remote value", v, ok)
	}
	k := NewHasher().Str("k").Sum()
	if _, err := tiered.Do(k, func() (any, int64, error) {
		return "computed", 8, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.Get(k); ok {
		t.Fatal("a read-only tier wrote its result through")
	}
	if v, ok := tiered.Get(k); !ok || v.(string) != "computed" {
		t.Fatalf("local Get = (%v, %v); want the computed value", v, ok)
	}
}

func TestTieredErrorNotCachedRemotely(t *testing.T) {
	remote := NewMemBackend()
	tiered := NewTiered(New(0), remote, remote)
	k := NewHasher().Str("k").Sum()
	boom := errors.New("boom")
	if _, err := tiered.Do(k, func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v; want boom", err)
	}
	if remote.Stats().Entries != 0 {
		t.Fatal("a failed computation leaked into the remote tier")
	}
}
