package dram

import (
	"fmt"
	"testing"

	"repro/internal/analog"
)

// opSequence drives a module through a deterministic mix of writes, frac
// stores and APA activations, returning every row readback. Two modules
// in equivalent state must produce identical transcripts.
func opSequence(t *testing.T, m *Module) []string {
	t.Helper()
	sa, err := m.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 4; row++ {
		if err := sa.FillRow(row, PatternRandom, 0xfeed, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.SetFracRow(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.APA(0, 1, apaOpts(10, 4, 0)); err != nil {
		t.Fatal(err)
	}
	var out []string
	for row := 0; row < 4; row++ {
		v, err := sa.ReadRowVec(row)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint(v.Bools()))
	}
	return out
}

func TestResetRestoresFreshState(t *testing.T) {
	spec := NewSpec("pool-reset", ProfileH, 0x9a7)
	spec.Columns = 256
	params := analog.DefaultParams()
	fresh, err := NewModule(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := NewModule(spec, params)
	if err != nil {
		t.Fatal(err)
	}
	want := opSequence(t, fresh)

	// Dirty the recycled instance with a different op mix, then Reset: the
	// transcript of the canonical sequence must match the fresh module's.
	sa, err := recycled.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 6; row++ {
		if err := sa.FillRow(row, PatternAll1, 1, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.SetFracRow(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.APA(1, 3, apaOpts(25, 9, 3)); err != nil {
		t.Fatal(err)
	}
	recycled.Reset()

	// Reset clears every subarray, not just the dirtied one.
	for b := 0; b < spec.Banks; b++ {
		for s := 0; s < spec.SubarraysPerBank; s++ {
			sa, err := recycled.Subarray(b, s)
			if err != nil {
				t.Fatal(err)
			}
			v, err := sa.ReadRowVec(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < v.Len(); i++ {
				if v.Get(i) {
					t.Fatalf("bank %d subarray %d row 0 bit %d still set after Reset", b, s, i)
				}
			}
		}
	}

	got := opSequence(t, recycled)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d after Reset: got %s, fresh %s", i, got[i], want[i])
		}
	}
}

func TestPoolModuleWithoutPoolBuildsFresh(t *testing.T) {
	spec := NewSpec("pool-nil", ProfileH, 0x11)
	spec.Columns = 256
	params := analog.DefaultParams()
	m, release, err := PoolModule(nil, spec, params, FormatParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil module")
	}
	release() // must be a safe no-op
	if m.Spec().ID != "pool-nil" {
		t.Fatalf("unexpected spec %q", m.Spec().ID)
	}
}
