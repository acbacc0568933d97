package fleet

import (
	"testing"

	"repro/internal/analog"
)

// TestTable1Population checks the headline population numbers: 18 modules
// and 120 chips from two manufacturers.
func TestTable1Population(t *testing.T) {
	entries := Modules(DefaultConfig())
	if len(entries) != 18 {
		t.Fatalf("modules = %d, want 18", len(entries))
	}
	if chips := TotalChips(entries); chips != 120 {
		t.Fatalf("chips = %d, want 120", chips)
	}
}

// TestTable1Manufacturers checks the per-manufacturer breakdown of
// Table 1: SK Hynix 12 modules / 96 chips, Micron 6 modules / 24 chips.
func TestTable1Manufacturers(t *testing.T) {
	var h, m []Entry
	for _, e := range Modules(DefaultConfig()) {
		switch e.Spec.Profile.Name {
		case "H":
			h = append(h, e)
		case "M":
			m = append(m, e)
		}
	}
	if len(h) != 12 || TotalChips(h) != 96 {
		t.Fatalf("Mfr. H: %d modules, %d chips; want 12/96", len(h), TotalChips(h))
	}
	if len(m) != 6 || TotalChips(m) != 24 {
		t.Fatalf("Mfr. M: %d modules, %d chips; want 6/24", len(m), TotalChips(m))
	}
}

// TestTable1DieRevisions verifies all four die revisions are present with
// the right subarray sizes and organizations.
func TestTable1DieRevisions(t *testing.T) {
	entries := Modules(DefaultConfig())
	type key struct {
		mfr, rev string
		rows     int
	}
	counts := make(map[key]int)
	for _, e := range entries {
		counts[key{e.Spec.Profile.Name, e.Spec.DieRev, e.Spec.Profile.Decoder.Rows}]++
	}
	want := map[key]int{
		{"H", "M", 512}:  4,
		{"H", "M", 640}:  3,
		{"H", "A", 512}:  5,
		{"M", "E", 1024}: 4,
		{"M", "B", 1024}: 2,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("die group %+v: %d modules, want %d", k, counts[k], n)
		}
	}
}

func TestSamsungControlPopulation(t *testing.T) {
	entries := SamsungModules(DefaultConfig())
	if len(entries) != 8 || TotalChips(entries) != 64 {
		t.Fatalf("Samsung: %d modules / %d chips, want 8/64", len(entries), TotalChips(entries))
	}
	for _, e := range entries {
		if !e.Spec.Profile.APAGuarded {
			t.Fatal("Samsung modules must be APA-guarded")
		}
	}
}

func TestModuleSeedsDistinct(t *testing.T) {
	entries := Modules(DefaultConfig())
	seen := make(map[uint64]bool)
	for _, e := range entries {
		if seen[e.Spec.Seed] {
			t.Fatalf("duplicate module seed %x", e.Spec.Seed)
		}
		seen[e.Spec.Seed] = true
	}
}

func TestModuleIDsDistinct(t *testing.T) {
	entries := Modules(DefaultConfig())
	seen := make(map[string]bool)
	for _, e := range entries {
		if seen[e.Spec.ID] {
			t.Fatalf("duplicate module ID %s", e.Spec.ID)
		}
		seen[e.Spec.ID] = true
	}
}

func TestBuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Columns = 64
	entries := Modules(cfg)
	mods, err := Build(entries, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != len(entries) {
		t.Fatalf("built %d modules", len(mods))
	}
	for i, m := range mods {
		if m.Spec().ID != entries[i].Spec.ID {
			t.Fatal("module order mismatch")
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	p := analog.DefaultParams()
	p.VDD = -1
	if _, err := Build(Modules(DefaultConfig())[:1], p); err == nil {
		t.Fatal("bad params should fail")
	}
}

func TestRepresentativeCoversDieGroups(t *testing.T) {
	reps := Representative(DefaultConfig())
	if len(reps) != 5 {
		t.Fatalf("representative set = %d entries, want 5 die groups", len(reps))
	}
	seen := make(map[string]bool)
	for _, e := range reps {
		seen[e.Spec.Profile.Name+e.Spec.DieRev] = true
	}
	for _, k := range []string{"HM", "HA", "ME", "MB"} {
		if !seen[k] {
			t.Fatalf("missing die group %s", k)
		}
	}
}

func TestDeterministicFleet(t *testing.T) {
	a := Modules(DefaultConfig())
	b := Modules(DefaultConfig())
	for i := range a {
		if a[i].Spec.ID != b[i].Spec.ID || a[i].Spec.Seed != b[i].Spec.Seed ||
			a[i].ChipIdentifier != b[i].ChipIdentifier {
			t.Fatal("fleet must be deterministic")
		}
	}
}
