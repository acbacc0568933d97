package charexp

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/spice"
	"repro/internal/stats"
)

// pooledSweep is the per-cell reference of pooledSweeps: one sweep
// configuration run as its own engine run, with fresh testers per module
// and no subarray locks, exactly as every grid figure executed before the
// whole grid became one plan. It honours ShardMemo (engine.RunKeyed) and
// accounts activations and shard counters the same way.
func (r *Runner) pooledSweep(sc core.SweepConfig, env analog.Env) ([]float64, error) {
	sc = r.boundSweep(sc)
	var (
		tasks      []engine.Task[[]core.GroupOutcome]
		keys       []engine.ShardKey
		applicable int
	)
	for _, mod := range r.mods {
		if !applies(mod.Spec().Profile, sc) {
			continue
		}
		applicable++
		tester, err := core.NewTester(mod,
			core.WithEnv(env), core.WithTrials(r.cfg.Trials), core.WithSeed(r.cfg.Seed),
			core.WithWorkers(1), core.WithArenaPool(r.arenas))
		if err != nil {
			return nil, err
		}
		for _, s := range tester.SweepSamples(sc) {
			tasks = append(tasks, func(context.Context) ([]core.GroupOutcome, error) {
				out, err := tester.SweepShard(sc, s)
				if err != nil {
					return nil, fmt.Errorf("charexp: module %s: %w", mod.Spec().ID, err)
				}
				r.stats.AddActivations(len(out) * r.cfg.Trials)
				return out, nil
			})
			keys = append(keys, r.shardKey(mod.Spec(), sc, env, s))
		}
	}
	if applicable == 0 {
		return nil, fmt.Errorf("charexp: no module in the fleet can run %v (X=%d)", sc.Op, sc.X)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("charexp: %v (X=%d): no subarrays sampled; check the sampling bounds", sc.Op, sc.X)
	}
	outcomes, err := engine.RunKeyed(context.Background(), r.cfg.Engine, r.stats, r.cfg.ShardMemo, keys, tasks)
	if err != nil {
		return nil, err
	}
	var pooled []float64
	for _, out := range outcomes {
		for _, o := range out {
			pooled = append(pooled, o.Result.Rate())
		}
	}
	return pooled, nil
}

// perCellGrid is the reference grid executor: today's loop of one
// pooledSweep per cell.
func (r *Runner) perCellGrid(cells []sweepCell) ([][]float64, error) {
	rates := make([][]float64, len(cells))
	for i, c := range cells {
		var err error
		if rates[i], err = r.pooledSweep(c.sc, c.env); err != nil {
			return nil, err
		}
	}
	return rates, nil
}

// refFigure15 is the sequential reference of Figure15: every Monte-Carlo
// point on the calling goroutine, in grid order.
func refFigure15(seed uint64, sets int) (Figure15Result, error) {
	mc := spice.NewMonteCarlo(seed)
	out := Figure15Result{
		Perturbation: make(map[int]map[float64]stats.Summary),
		Success:      make(map[int]map[float64]float64),
	}
	for _, n := range spice.RowCounts {
		out.Perturbation[n] = make(map[float64]stats.Summary)
		if n > 1 {
			out.Success[n] = make(map[float64]float64)
		}
		for _, pv := range spice.Variations {
			res, err := mc.Run(n, pv, sets)
			if err != nil {
				return Figure15Result{}, err
			}
			out.Perturbation[n][pv] = stats.MustSummarize(res.Perturbations)
			if n > 1 {
				out.Success[n][pv] = res.SuccessRate
			}
		}
	}
	return out, nil
}

// gridFigureIDs are the figures whose whole grid is one plan.
var gridFigureIDs = []string{"3", "4a", "4b", "6", "7", "8", "9", "10", "11", "12a", "12b"}

// TestFigurePlanMatchesPerCellReference is the differential oracle of the
// figure plan: every grid figure run as one engine run must render the
// same CSV bytes and account the same shards, cached shards and
// activations as the per-cell reference, at several worker counts and
// with the shard memo off, cold and warm. Each grid figure is exactly one
// engine run.
func TestFigurePlanMatchesPerCellReference(t *testing.T) {
	const sets = 16
	for _, workers := range []int{1, 2, 8} {
		for _, memo := range []string{"off", "cold", "warm"} {
			t.Run(fmt.Sprintf("workers=%d/memo=%s", workers, memo), func(t *testing.T) {
				var planStore, refStore *cache.Cache
				run := func(id string, ref bool) (string, engine.Snapshot) {
					t.Helper()
					cfg := smallConfig()
					cfg.Engine.Workers = workers
					store := planStore
					if ref {
						store = refStore
					}
					if memo != "off" {
						cfg.ShardMemo = cache.NewTyped[[]core.GroupOutcome](store, nil)
					}
					r, err := NewRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if ref {
						r.gridRef = r.perCellGrid
					}
					out, err := r.RunFigure(id, sets, "csv")
					if err != nil {
						t.Fatalf("figure %s: %v", id, err)
					}
					return out, r.Stats()
				}
				for _, id := range gridFigureIDs {
					// Fresh stores per figure and side: a cold pass finds
					// nothing, and a warm pass reads only what its own side's
					// cold pass wrote.
					planStore, refStore = cache.New(0), cache.New(0)
					if memo == "warm" {
						run(id, false)
						run(id, true)
					}
					got, gs := run(id, false)
					want, ws := run(id, true)
					if got != want {
						t.Errorf("figure %s: plan CSV differs from the per-cell reference\nplan:\n%s\nref:\n%s", id, got, want)
					}
					if gs.ShardsTotal != ws.ShardsTotal || gs.ShardsDone != ws.ShardsDone ||
						gs.ShardsCached != ws.ShardsCached || gs.Activations != ws.Activations {
						t.Errorf("figure %s: plan stats %+v, reference %+v", id, gs, ws)
					}
					if gs.Runs != 1 {
						t.Errorf("figure %s: %d engine runs, want 1", id, gs.Runs)
					}
					switch memo {
					case "warm":
						if gs.ShardsCached != gs.ShardsTotal || gs.Activations != 0 {
							t.Errorf("figure %s: warm plan stats %+v, want every shard cached", id, gs)
						}
					default:
						if gs.ShardsCached != 0 || gs.ShardsDone != gs.ShardsTotal {
							t.Errorf("figure %s: plan stats %+v, want every shard executed", id, gs)
						}
					}
				}

				cfg := smallConfig()
				cfg.Engine.Workers = workers
				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.RunFigure("15", sets, "csv")
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refFigure15(cfg.Seed, sets)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.Table().CSV(); got != want {
					t.Errorf("figure 15: engine CSV differs from the sequential reference\nengine:\n%s\nref:\n%s", got, want)
				}
				if s := r.Stats(); s != (engine.Snapshot{}) {
					t.Errorf("figure 15 touched the shard counters: %+v", s)
				}
			})
		}
	}
}

// TestFigurePlanEnumerationErrorFirst pins that an enumeration error
// surfaces before any shard runs: a grid whose last cell no module can
// run fails without executing the cells before it.
func TestFigurePlanEnumerationErrorFirst(t *testing.T) {
	r := smallRunner(t)
	ok := sweepCell{sc: core.SweepConfig{Op: core.OpManyRowActivation, N: 8}, env: analog.NominalEnv()}
	bad := sweepCell{sc: core.SweepConfig{Op: core.OpMAJ, X: 99, N: 32}, env: analog.NominalEnv()}
	_, err := r.pooledSweeps([]sweepCell{ok, bad})
	if err == nil {
		t.Fatal("grid with an unrunnable cell succeeded")
	}
	if want := "charexp: no module in the fleet can run MAJ (X=99)"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if s := r.Stats(); s.Runs != 0 || s.ShardsTotal != 0 || s.Activations != 0 {
		t.Fatalf("stats after an enumeration error: %+v, want no run", s)
	}
}
