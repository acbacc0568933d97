package dram_test

import (
	"sync"
	"testing"

	"repro/internal/analog"
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
	out, err := render(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// render is sweep's body, safe to call off the test's goroutine.
func render(cfg charexp.Config) (string, error) {
	r, err := charexp.NewRunner(cfg)
	if err != nil {
		return "", err
	}
	f3, err := r.Figure3()
	if err != nil {
		return "", err
	}
	f8, err := r.Figure8()
	if err != nil {
		return "", err
	}
	f10, err := r.Figure10()
	if err != nil {
		return "", err
	}
	return f3.Table().CSV() + f8.Table().CSV() + f10.Table().CSV(), nil
}

// attachSets builds a 256-column module instance of the seed's identity
// and attaches the table sets of bank 0's first n subarrays.
func attachSets(seed uint64, n int) (*dram.Module, error) {
	spec := dram.NewSpec("registry-test", dram.ProfileH, seed)
	spec.Columns = 256
	m, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		return nil, err
	}
	for sa := 0; sa < n; sa++ {
		if _, err := m.Subarray(0, sa); err != nil {
			return nil, err
		}
	}
	return m, nil
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

// TestRegistryKeepsReusedSets reuses one identity's table sets — a second
// instance attaches them, or a warm pool recycles the instance through
// Reset — and floods a small budget with one-use sets, four times the
// budget in all, reusing the identity again after each flood module, as
// a server does that keeps returning to its fleet. Only the flood's sets
// may be derived, probation must stay within its eighth of the budget
// and the registry within the budget. Once the reuse stops, a further
// flood of twice the budget must age the identity's sets out.
func TestRegistryKeepsReusedSets(t *testing.T) {
	const budget, sets = 4 << 20, 8
	for i, reuse := range []struct {
		name string
		use  func(m *dram.Module) error
	}{
		{"second attachment", func(m *dram.Module) error {
			_, err := attachSets(m.Spec().Seed, sets)
			return err
		}},
		{"warm-pool recycle", func(m *dram.Module) error {
			m.Reset()
			return nil
		}},
	} {
		t.Run(reuse.name, func(t *testing.T) {
			dram.SetTableBudget(0)() // start from an empty registry
			defer dram.SetTableBudget(budget)()
			kept := uint64(0x2a0e0000 + i<<16)
			m, err := attachSets(kept, sets)
			if err != nil {
				t.Fatal(err)
			}
			size := dram.Registry().Bytes
			if size <= 0 || size > budget/8 {
				t.Fatalf("%d sets charged %d bytes, want some within probation's %d", sets, size, budget/8)
			}
			promotions0 := dram.Registry().Promotions
			if err := reuse.use(m); err != nil {
				t.Fatal(err)
			}
			if rs := dram.Registry(); rs.Promotions-promotions0 != sets || rs.ProbationBytes != 0 {
				t.Fatalf("reuse promoted %d sets and left %d bytes in probation, want %d and 0",
					rs.Promotions-promotions0, rs.ProbationBytes, sets)
			}
			flood := func(from uint64, bytes int64, keep bool) {
				t.Helper()
				for n := uint64(1); int64(n)*size <= bytes; n++ {
					if _, err := attachSets(from+n, sets); err != nil {
						t.Fatal(err)
					}
					if rs := dram.Registry(); rs.ProbationBytes > budget/8 || rs.Bytes > budget {
						t.Fatalf("flood module %d: probation holds %d bytes of %d, the registry %d of %d",
							n, rs.ProbationBytes, budget/8, rs.Bytes, budget)
					}
					if keep {
						if err := reuse.use(m); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			derived0, _ := dram.TableDerivations()
			flood(kept+1<<12, 4*budget, true)
			derived, _ := dram.TableDerivations()
			if want := int64(4*budget/size) * sets; derived-derived0 != want {
				t.Fatalf("the flood derived %d sets, want only its own %d", derived-derived0, want)
			}
			hits0 := dram.Registry().LookupHits
			if _, err := attachSets(kept, sets); err != nil {
				t.Fatal(err)
			}
			derived1, _ := dram.TableDerivations()
			if hits := dram.Registry().LookupHits - hits0; derived1 != derived || hits != sets {
				t.Fatalf("after the flood, reattaching derived %d sets and found %d of %d registered",
					derived1-derived, hits, sets)
			}

			demotions0 := dram.Registry().Demotions
			flood(kept+2<<12, 2*budget, false)
			derived2, _ := dram.TableDerivations()
			if _, err := attachSets(kept, sets); err != nil {
				t.Fatal(err)
			}
			derived3, _ := dram.TableDerivations()
			if demoted := dram.Registry().Demotions - demotions0; derived3-derived2 != sets || demoted < sets {
				t.Fatalf("after the reuse stopped and a flood, reattaching derived %d of %d sets, with %d demotions",
					derived3-derived2, sets, demoted)
			}
		})
	}
}

// TestRegistryPressureKeepsResults runs one small sweep from several
// goroutines at once, each through its own instances of one identity,
// while another goroutine floods the registry with one-use sets and
// shrinks the budget (to zero among others) and restores it. Every sweep
// must render the bytes it renders without pressure. Run it under -race.
func TestRegistryPressureKeepsResults(t *testing.T) {
	cfg := sweepConfig(0x5eed5eed)
	want := sweep(t, cfg)

	stop := make(chan struct{})
	flooded := make(chan error, 1)
	go func() {
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				flooded <- nil
				return
			default:
			}
			restore := dram.SetTableBudget([]int64{0, 64 << 10, 1 << 20}[i%3])
			_, err := attachSets(0x9f100d00+i, 4)
			restore()
			if err != nil {
				flooded <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				got, err := render(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("sweep %d changed under registry pressure", rep)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-flooded; err != nil {
		t.Fatal(err)
	}
}
