package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analog"
	"repro/internal/dram"
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

// oracleModules is the fleet construction Modules replaced: one Sprintf ID
// and one dram.NewSpec per Table-2 module, appended in table order.
func oracleModules(cfg Config) []Entry {
	var out []Entry
	idx := 0
	for _, row := range table2() {
		for i := 0; i < row.modules; i++ {
			id := fmt.Sprintf("%s-%s-%d", row.profile.Name, row.dieRev, idx)
			spec := dram.NewSpec(id, row.profile, cfg.Seed+uint64(idx)*0x9e37)
			spec.Chips = row.chips
			spec.Columns = cfg.Columns
			spec.DensityGbit = row.densityGb
			spec.DieRev = row.dieRev
			spec.FreqMTps = row.freq
			out = append(out, Entry{
				Spec:             spec,
				ModuleVendor:     row.vendor,
				ModuleIdentifier: row.moduleID,
				ChipIdentifier:   row.chipID,
				MfrDate:          row.mfrDate,
			})
			idx++
		}
	}
	return out
}

// oracleRepresentative keeps the first oracle module per (profile, die
// revision, subarray rows).
func oracleRepresentative(cfg Config) []Entry {
	seen := make(map[string]bool)
	var out []Entry
	for _, e := range oracleModules(cfg) {
		key := e.Spec.Profile.Name + "/" + e.Spec.DieRev + "/" +
			fmt.Sprint(e.Spec.Profile.Decoder.Rows)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

// oracleSamsung builds the §9 control modules one NewSpec at a time.
func oracleSamsung(cfg Config) []Entry {
	out := make([]Entry, 0, 8)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("S-ctl-%d", i)
		spec := dram.NewSpec(id, dram.ProfileS, cfg.Seed+0xabcd+uint64(i)*0x9e37)
		spec.Columns = cfg.Columns
		out = append(out, Entry{
			Spec:             spec,
			ModuleVendor:     "Samsung",
			ModuleIdentifier: "control",
			ChipIdentifier:   "control",
			MfrDate:          "Unknown",
		})
	}
	return out
}

// TestFleetMatchesOracle checks the once-built module templates against
// the per-call construction for several (Columns, Seed) configurations,
// entry by entry and field by field, and that every call hands out a
// fresh slice: mutating one call's entries never reaches the next call.
func TestFleetMatchesOracle(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{Columns: 64, Seed: 1},
		{Columns: 512, Seed: 0xffffffffffffff00}, // seed offsets wrap
		{Columns: 8192, Seed: 0},
	} {
		for _, c := range []struct {
			name      string
			got, want func(Config) []Entry
		}{
			{"Modules", Modules, oracleModules},
			{"Representative", Representative, oracleRepresentative},
			{"SamsungModules", SamsungModules, oracleSamsung},
		} {
			got, want := c.got(cfg), c.want(cfg)
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d entries, want %d", c.name, cfg, len(got), len(want))
			}
			for i := range want {
				gv, wv := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
				for f := 0; f < gv.NumField(); f++ {
					if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
						t.Errorf("%s %+v entry %d: %s = %+v, want %+v", c.name, cfg, i,
							gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
					}
				}
			}

			for i := range got {
				got[i].Spec.ID += "-mutated"
				got[i].Spec.Seed++
				got[i].Spec.Columns++
				got[i].ModuleVendor = "mutated"
			}
			if again := c.got(cfg); !reflect.DeepEqual(again, want) {
				t.Errorf("%s %+v: mutating a returned entry leaked into the next call", c.name, cfg)
			}
		}
	}
}
