package charexp

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/timing"
)

// runnerWithWorkers builds a small runner with the engine bounded to the
// given worker count.
func runnerWithWorkers(t *testing.T, workers int) *Runner {
	t.Helper()
	cfg := smallConfig()
	cfg.Engine.Workers = workers
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The engine-determinism and cache byte-identity properties formerly
// asserted here per figure now live in the shared metamorphic suite:
// see invariance_test.go and internal/invariance.

// TestPerModuleMatchesDirectSweeps pins the shard decomposition against
// the obvious sequential implementation: every cell's mean must equal
// running that op's sweep directly with core.Tester.RunSweep. This is
// the regression test for shards racing on shared subarray state — ops
// of one module sample the same subarrays, so they must never run in
// concurrent shards.
func TestPerModuleMatchesDirectSweeps(t *testing.T) {
	r := runnerWithWorkers(t, 8)
	got, err := r.PerModule()
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		label string
		cfg   core.SweepConfig
	}{
		{"activation32", core.SweepConfig{
			Op: core.OpManyRowActivation, N: 32,
			Timings: timing.BestSiMRA(), Pattern: dram.PatternRandom,
		}},
		{"maj3x32", core.SweepConfig{
			Op: core.OpMAJ, X: 3, N: 32,
			Timings: timing.BestMAJ(), Pattern: dram.PatternRandom,
		}},
		{"copy31", core.SweepConfig{
			Op: core.OpMultiRowCopy, N: 32,
			Timings: timing.BestCopy(), Pattern: dram.PatternRandom,
		}},
	}
	for _, mod := range r.Modules() {
		tester, err := core.NewTester(mod,
			core.WithTrials(r.cfg.Trials), core.WithSeed(r.cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			res, err := tester.RunSweep(r.boundSweep(op.cfg))
			if err != nil {
				t.Fatal(err)
			}
			want := res.Summary().Mean
			mean, ok := got.Mean(mod.Spec().ID, op.label)
			if !ok {
				t.Fatalf("no %s cell for module %s", op.label, mod.Spec().ID)
			}
			if mean != want {
				t.Errorf("module %s %s: PerModule mean %v, direct sweep %v",
					mod.Spec().ID, op.label, mean, want)
			}
		}
	}
}

// sampleAt builds a subarray sample for key-sensitivity checks.
func sampleAt(bank, subarray int) bender.SubarraySample {
	return bender.SubarraySample{Bank: bank, Subarray: subarray}
}

// TestShardKeyKnownAnswer pins one sweep shard's memo key — the shared
// dram.Spec.HashModule block plus the shard fields — to a fixed digest, so
// the per-shard memo addresses survive refactors of the Hasher byte for
// byte.
func TestShardKeyKnownAnswer(t *testing.T) {
	cfg := DefaultConfig()
	r := &Runner{cfg: cfg}
	sc := r.boundSweep(core.SweepConfig{
		Op: core.OpMAJ, X: 3, N: 8,
		Timings: timing.BestSiMRA(), Pattern: dram.PatternRandom,
	})
	key := r.shardKey(cfg.Fleet[1].Spec, sc, analog.NominalEnv(), sampleAt(1, 0))
	const want = "e4b7e291fa10e424894003df662026422e6f53ab0bd6506145ba6e6ae8eee05c"
	if got := cache.KeyString(key); got != want {
		t.Errorf("shard key %s, want %s", got, want)
	}
}

// TestShardMemoKeySensitivity pins the keying scheme: any change to an
// input that affects a shard's outcome must change its key, while the
// worker count must not.
func TestShardMemoKeySensitivity(t *testing.T) {
	r := smallRunner(t)
	mod := r.Modules()[0]
	sc := r.boundSweep(core.SweepConfig{
		Op: core.OpManyRowActivation, N: 8,
		Timings: timing.BestSiMRA(), Pattern: dram.PatternRandom,
	})
	env := analog.NominalEnv()
	base := r.shardKey(mod.Spec(), sc, env, sampleAt(0, 0))

	if r.shardKey(mod.Spec(), sc, env, sampleAt(0, 0)) != base {
		t.Fatal("shard key is not deterministic")
	}
	if r.shardKey(mod.Spec(), sc, env, sampleAt(0, 1)) == base {
		t.Fatal("key ignores the subarray coordinate")
	}
	sc2 := sc
	sc2.N = 16
	if r.shardKey(mod.Spec(), sc2, env, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the activation row count")
	}
	sc3 := sc
	sc3.Timings.T1 += 0.5
	if r.shardKey(mod.Spec(), sc3, env, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the APA timings")
	}
	env2 := env
	env2.TempC = 85
	if r.shardKey(mod.Spec(), sc, env2, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the environment")
	}
	env3 := env
	env3.Aging = 5
	if r.shardKey(mod.Spec(), sc, env3, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the aging axis")
	}
	spec2 := mod.Spec()
	spec2.Seed++
	if r.shardKey(spec2, sc, env, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the module's process-variation seed")
	}
	r2cfg := smallConfig()
	r2cfg.Seed++
	r2, err := NewRunner(r2cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.shardKey(mod.Spec(), sc, env, sampleAt(0, 0)) == base {
		t.Fatal("key ignores the experiment seed")
	}
	// Worker count is excluded by design: results are worker-invariant.
	rw := smallConfig()
	rw.Engine.Workers = 13
	rWorkers, err := NewRunner(rw)
	if err != nil {
		t.Fatal(err)
	}
	if rWorkers.shardKey(mod.Spec(), sc, env, sampleAt(0, 0)) != base {
		t.Fatal("key depends on the worker count; it must not")
	}
}

// TestRunnerStats verifies the progress counters advance with the work.
func TestRunnerStats(t *testing.T) {
	r := smallRunner(t)
	if s := r.Stats(); s.ShardsTotal != 0 || s.Activations != 0 {
		t.Fatalf("fresh runner already has stats: %+v", s)
	}
	if _, err := r.Figure11(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Runs == 0 || s.ShardsTotal == 0 || s.ShardsDone != s.ShardsTotal {
		t.Fatalf("stats after Figure11: %+v, want completed shards", s)
	}
	if s.Activations == 0 {
		t.Fatalf("stats after Figure11: %+v, want issued activations", s)
	}
	if s.Wall <= 0 {
		t.Fatalf("stats after Figure11: wall = %s, want > 0", s.Wall)
	}
}

// TestSweepShardsEnumeration checks the shard split: fleet order,
// stable sub-seeds, and manufacturer filtering.
func TestSweepShardsEnumeration(t *testing.T) {
	r := smallRunner(t)
	sc := core.SweepConfig{
		Op: core.OpManyRowActivation, N: 8,
		Timings: timing.BestSiMRA(), Pattern: dram.PatternRandom,
	}
	p := r.newSweepPlan()
	applicable, err := p.add(sc, analog.NominalEnv(), "")
	if err != nil {
		t.Fatal(err)
	}
	all := p.shards
	if len(all) == 0 {
		t.Fatal("no shards enumerated")
	}
	if applicable != len(r.Modules()) {
		t.Fatalf("applicable = %d, want all %d modules", applicable, len(r.Modules()))
	}
	seen := make(map[uint64]bool)
	for _, sh := range all {
		if seen[sh.shard.Seed] {
			t.Fatalf("duplicate shard seed %#x", sh.shard.Seed)
		}
		seen[sh.shard.Seed] = true
		if sh.tester == nil {
			t.Fatal("shard without tester")
		}
	}
	hp := r.newSweepPlan()
	if _, err := hp.add(sc, analog.NominalEnv(), "H"); err != nil {
		t.Fatal(err)
	}
	hOnly := hp.shards
	if len(hOnly) == 0 || len(hOnly) >= len(all) {
		t.Fatalf("manufacturer filter: %d H shards of %d total", len(hOnly), len(all))
	}
	for _, sh := range hOnly {
		if sh.tester.Module().Spec().Profile.Name != "H" {
			t.Fatal("manufacturer filter leaked a non-H module")
		}
	}
}
