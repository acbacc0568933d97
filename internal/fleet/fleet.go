// Package fleet builds the tested DRAM module population of Table 1 and
// Table 2: 18 DDR4 modules (120 chips) from SK Hynix and Micron across
// four die revisions, plus the Samsung control modules of §9 on which no
// PUD operation is observable.
package fleet

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/dram"
)

// Entry is one row of Table 2: a module's identity and reporting metadata.
type Entry struct {
	Spec             dram.Spec
	ModuleVendor     string
	ModuleIdentifier string
	ChipIdentifier   string
	MfrDate          string // week-year, "Unknown" where the paper says so
}

// Config bounds the simulated fleet.
type Config struct {
	// Columns is the simulated subarray slice width per module.
	Columns int
	// Seed feeds every module's static process variation.
	Seed uint64
}

// DefaultConfig returns the standard fleet configuration.
func DefaultConfig() Config {
	return Config{Columns: dram.DefaultColumns, Seed: 0x51a17}
}

// tableRow describes one Table 2 aggregate line.
type tableRow struct {
	vendor    string
	moduleID  string
	chipID    string
	mfrDate   string
	modules   int
	chips     int
	freq      int
	densityGb int
	dieRev    string
	profile   dram.Profile
}

// table2 is the paper's Table 2, with the SK Hynix M-die modules split
// between the 512- and 640-row subarray variants Table 1 reports.
func table2() []tableRow {
	return []tableRow{
		{
			vendor: "TimeTec", moduleID: "TLRD44G2666HC18F-SBK",
			chipID: "H5AN4G8NMFR-TFC", mfrDate: "Unknown",
			modules: 4, chips: 8, freq: 2666, densityGb: 4, dieRev: "M",
			profile: dram.ProfileH,
		},
		{
			vendor: "TimeTec", moduleID: "TLRD44G2666HC18F-SBK",
			chipID: "H5AN4G8NMFR-TFC", mfrDate: "Unknown",
			modules: 3, chips: 8, freq: 2666, densityGb: 4, dieRev: "M",
			profile: dram.ProfileH640,
		},
		{
			vendor: "TeamGroup", moduleID: "76TT21NUS1R8-4G",
			chipID: "H5AN4G8NAFR-TFC", mfrDate: "Unknown",
			modules: 5, chips: 8, freq: 2133, densityGb: 4, dieRev: "A",
			profile: dram.ProfileH,
		},
		{
			vendor: "Micron", moduleID: "MTA4ATF1G64HZ-3G2E1",
			chipID: "MT40A1G16KD-062E:E", mfrDate: "46-20",
			modules: 4, chips: 4, freq: 3200, densityGb: 16, dieRev: "E",
			profile: dram.ProfileM,
		},
		{
			vendor: "Micron", moduleID: "MTA4ATF1G64HZ-3G2B2",
			chipID: "MT40A1G16RC-062E:B", mfrDate: "26-21",
			modules: 2, chips: 4, freq: 2666, densityGb: 16, dieRev: "B",
			profile: dram.ProfileM,
		},
	}
}

// The module templates depend on no Config, so they are built once per
// process: Table 1/2 in table order, its first module per (manufacturer,
// die revision, subarray rows), and the §9 controls. A template's
// Spec.Seed is its offset from Config.Seed; Spec.Columns is unset.
var table2Modules, representatives, samsungModules = templates()

func templates() (mods, rep, samsung []Entry) {
	seen := make(map[string]bool)
	for _, row := range table2() {
		for i := 0; i < row.modules; i++ {
			idx := len(mods)
			id := fmt.Sprintf("%s-%s-%d", row.profile.Name, row.dieRev, idx)
			spec := dram.NewSpec(id, row.profile, uint64(idx)*0x9e37)
			spec.Chips = row.chips
			spec.DensityGbit = row.densityGb
			spec.DieRev = row.dieRev
			spec.FreqMTps = row.freq
			mods = append(mods, Entry{spec, row.vendor, row.moduleID, row.chipID, row.mfrDate})
			if g := fmt.Sprint(row.profile.Name, "/", row.dieRev, "/", row.profile.Decoder.Rows); !seen[g] {
				seen[g] = true
				rep = append(rep, mods[idx])
			}
		}
	}
	for i := 0; i < 8; i++ {
		spec := dram.NewSpec(fmt.Sprintf("S-ctl-%d", i), dram.ProfileS, 0xabcd+uint64(i)*0x9e37)
		samsung = append(samsung, Entry{spec, "Samsung", "control", "control", "Unknown"})
	}
	return mods, rep, samsung
}

// instantiate copies tmpl under cfg into a fresh slice the caller owns.
func instantiate(cfg Config, tmpl []Entry) []Entry {
	out := make([]Entry, len(tmpl))
	for i, e := range tmpl {
		e.Spec.Columns = cfg.Columns
		e.Spec.Seed += cfg.Seed
		out[i] = e
	}
	return out
}

// Modules returns the 18 PUD-capable modules of Table 1/2 (120 chips).
func Modules(cfg Config) []Entry { return instantiate(cfg, table2Modules) }

// SamsungModules returns the §9 control population: 8 modules (64 chips)
// whose control circuitry guards against timing-violating APA sequences.
func SamsungModules(cfg Config) []Entry { return instantiate(cfg, samsungModules) }

// TotalChips sums the chip count over entries.
func TotalChips(entries []Entry) int {
	total := 0
	for _, e := range entries {
		total += e.Spec.Chips
	}
	return total
}

// Build instantiates the modules of the given entries.
func Build(entries []Entry, params analog.Params) ([]*dram.Module, error) {
	return BuildFrom(nil, entries, params, dram.FormatParams(params))
}

// BuildFrom is Build drawing instances from a module pool (nil = fresh
// construction), with the params' block pb = dram.FormatParams(params)
// resolved by the caller. On error the already-checked-out instances are
// returned to the pool; on success the caller owns every instance and is
// responsible for Put-ting them back when done.
func BuildFrom(pool dram.ModulePool, entries []Entry, params analog.Params, pb dram.ParamsBlock) ([]*dram.Module, error) {
	out := make([]*dram.Module, 0, len(entries))
	for _, e := range entries {
		var m *dram.Module
		var err error
		if pool != nil {
			m, err = pool.Get(e.Spec, params, pb)
		} else {
			m, err = dram.NewModuleBlock(e.Spec, params, pb)
		}
		if err != nil {
			Release(pool, out)
			return nil, fmt.Errorf("fleet: module %s: %w", e.Spec.ID, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Release returns a batch of BuildFrom instances to the pool (nil pool or
// nil slice entries are ignored).
func Release(pool dram.ModulePool, mods []*dram.Module) {
	if pool == nil {
		return
	}
	for _, m := range mods {
		if m != nil {
			pool.Put(m)
		}
	}
}

// Representative returns a small deterministic subset of the fleet — one
// module per (manufacturer, die revision) — used by experiments that
// cannot afford the full population (the paper itself restricts voltage
// experiments to two modules, footnote 9).
func Representative(cfg Config) []Entry { return instantiate(cfg, representatives) }
