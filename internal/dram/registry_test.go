package dram_test

import (
	"testing"

	"repro/internal/charexp"
	"repro/internal/dram"
	"repro/internal/fleet"
)

// sweepConfig is a small characterization config at the given root seed.
func sweepConfig(seed uint64) charexp.Config {
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 64
	cfg.Fleet = fleet.Representative(fc)
	cfg.Trials, cfg.GroupsPerSubarray, cfg.Banks = 2, 2, 1
	cfg.Seed = seed
	cfg.Engine.Workers = 2
	return cfg
}

// sweep renders Figs. 3, 8 and 10 from a fresh runner.
func sweep(t *testing.T, cfg charexp.Config) string {
	t.Helper()
	r, err := charexp.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := r.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	return f3.Table().CSV() + f8.Table().CSV() + f10.Table().CSV()
}

// TestRegistryBudgetBoundsFreshSeeds runs a fresh-seed loop of sweeps, the
// pattern that grew the registry without bound, under a small budget: the
// bytes charged to the registered table sets never exceed it, and sets
// are evicted to keep it so.
func TestRegistryBudgetBoundsFreshSeeds(t *testing.T) {
	const budget = 1 << 20
	defer dram.SetTableBudget(budget)()
	sets0, _ := dram.TableDerivations()
	for seed := uint64(1); seed <= 8; seed++ {
		sweep(t, sweepConfig(0x5eed0000+seed))
		if rs := dram.Registry(); rs.Bytes > budget {
			t.Fatalf("seed %d: registry charged %d bytes, budget %d", seed, rs.Bytes, budget)
		}
	}
	sets1, _ := dram.TableDerivations()
	rs := dram.Registry()
	if int64(rs.Sets) >= sets1-sets0 {
		t.Fatalf("registry holds %d sets after deriving %d: nothing was evicted", rs.Sets, sets1-sets0)
	}
	if rs.Budget != budget || rs.Evictions == 0 {
		t.Fatalf("registry reports budget %d and %d evictions, want %d and some", rs.Budget, rs.Evictions, budget)
	}
}

// TestRegistryEvictionKeepsBytes forces evictions in the middle of each
// sweep, down to a budget smaller than one table set, and checks that
// Figs. 3, 8 and 10 render the same bytes as with the default budget.
func TestRegistryEvictionKeepsBytes(t *testing.T) {
	cfg := sweepConfig(0x5eed)
	want := sweep(t, cfg)
	for _, budget := range []int64{0, 4 << 10, 256 << 10} {
		restore := dram.SetTableBudget(budget)
		got := sweep(t, cfg)
		restore()
		if got != want {
			t.Fatalf("budget %d: figures changed under forced evictions", budget)
		}
	}
}
