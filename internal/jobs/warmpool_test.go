package jobs

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/timing"
)

func warmSpec(id string) dram.Spec {
	spec := dram.NewSpec(id, dram.ProfileH, 0x77)
	spec.Columns = 256
	return spec
}

// transcript runs a deterministic write + APA sequence and returns the
// readbacks: pooled reuse must be bit-identical to a fresh build.
func transcript(t *testing.T, m *dram.Module) []string {
	t.Helper()
	sa, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 3; row++ {
		if err := sa.FillRow(row, dram.PatternRandom, 0xc0de, row); err != nil {
			t.Fatal(err)
		}
	}
	opts := dram.APAOptions{
		Timings: timing.APATimings{T1: 10, T2: 4},
		Env:     analog.NominalEnv(),
	}
	if _, err := sa.APA(0, 1, opts); err != nil {
		t.Fatal(err)
	}
	var out []string
	for row := 0; row < 3; row++ {
		v, err := sa.ReadRowVec(row)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint(v.Bools()))
	}
	return out
}

func TestWarmpoolReuseIsBitIdentical(t *testing.T) {
	params := analog.DefaultParams()
	spec := warmSpec("wp-identical")
	fresh, err := dram.NewModule(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	want := transcript(t, fresh)

	p := NewWarmpool(2)
	m1, err := p.Get(spec, params, dram.FormatParams(params))
	if err != nil {
		t.Fatal(err)
	}
	got := transcript(t, m1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("first checkout row %d differs from fresh build", i)
		}
	}
	p.Put(m1)
	m2, err := p.Get(spec, params, dram.FormatParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("second Get did not reuse the parked instance")
	}
	got = transcript(t, m2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled checkout row %d differs from fresh build", i)
		}
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

func TestWarmpoolKeysBySpecAndParams(t *testing.T) {
	params := analog.DefaultParams()
	p := NewWarmpool(2)
	a, err := p.Get(warmSpec("wp-a"), params, dram.FormatParams(params))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	// A different spec must not receive wp-a's instance.
	b, err := p.Get(warmSpec("wp-b"), params, dram.FormatParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("pool crossed module identities")
	}
	// Same spec, different electrical params: also distinct.
	params2 := params
	params2.VPPNominal += 0.1
	c, err := p.Get(warmSpec("wp-a"), params2, dram.FormatParams(params2))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("pool crossed electrical parameter sets")
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats %+v, want 0 hits / 3 misses", st)
	}
}

func TestWarmpoolDiscardsBeyondCap(t *testing.T) {
	params := analog.DefaultParams()
	spec := warmSpec("wp-cap")
	p := NewWarmpool(1)
	m1, _ := p.Get(spec, params, dram.FormatParams(params))
	m2, _ := p.Get(spec, params, dram.FormatParams(params))
	p.Put(m1)
	p.Put(m2) // over the cap: discarded
	p.Put(nil)
	st := p.Stats()
	if st.Idle != 1 || st.Discarded != 1 {
		t.Fatalf("stats %+v, want 1 idle / 1 discarded", st)
	}
}

func TestWarmpoolSatisfiesModulePool(t *testing.T) {
	var _ dram.ModulePool = NewWarmpool(0)
}

// TestPoolKeyKnownAnswer pins the warmpool's module-identity key — the
// shared HashModule block under the pool's tag — to a fixed digest, read
// back from the idle map after a Put.
func TestPoolKeyKnownAnswer(t *testing.T) {
	m, err := dram.NewModule(warmSpec("wp-kat"), analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := NewWarmpool(1)
	p.Put(m)
	if len(p.idle) != 1 {
		t.Fatalf("%d idle keys after one Put, want 1", len(p.idle))
	}
	const want = "a08ef3b77a41504b3ae419c5c3c7f5aa6a1222bda81727f724506296bac6d715"
	for k := range p.idle {
		if got := cache.KeyString(k); got != want {
			t.Errorf("pool key %s, want %s", got, want)
		}
	}
}
