package charexp

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
)

// sweepCell is one cell of a figure grid: a sweep configuration measured
// under one operating environment.
type sweepCell struct {
	sc  core.SweepConfig
	env analog.Env
}

// sweepShard binds one engine shard to the module tester and subarray
// sample that execute it. cell indexes the plan's bounded sweep
// configurations and lock is the plan's mutex for the shard's subarray.
// key is the shard's content hash for the optional ShardMemo and for
// cluster dispatch; spec is the serialized form dispatched to remote
// workers (non-nil only when Config.Dispatch is set).
type sweepShard struct {
	shard  engine.Shard
	tester *core.Tester
	sample bender.SubarraySample
	cell   int
	lock   *sync.Mutex
	key    cache.Key
	spec   *core.ShardSpec
}

// testerKey identifies the one tester a plan builds per module and
// operating environment.
type testerKey struct {
	module int
	env    analog.Env
}

// sweepPlan enumerates the shards of every cell of a figure so the whole
// grid executes as one engine run, cell-major and in fleet order within
// a cell. Shards of different cells can share a (module, bank, subarray),
// and a dram.Subarray may be driven by one goroutine at a time, so each
// local shard body holds its subarray's mutex; the mutexes belong to the
// plan. Shard outcomes are pure functions of their key, so the result
// bytes do not depend on which shard takes a subarray first.
type sweepPlan struct {
	r      *Runner
	cells  []core.SweepConfig // bounded, by cell index
	shards []sweepShard
	// testers holds one tester per (module, env), so every cell of the
	// figure shares its sample and group caches.
	testers map[testerKey]*core.Tester
	locks   map[*dram.Subarray]*sync.Mutex
}

func (r *Runner) newSweepPlan() *sweepPlan {
	return &sweepPlan{
		r:       r,
		testers: make(map[testerKey]*core.Tester),
		locks:   make(map[*dram.Subarray]*sync.Mutex),
	}
}

// shardKey hashes everything one sweep shard's outcome depends on: the
// module's identity and electrical model (the shared dram.Spec.HashModule
// block), the operating environment, the (bounded) sweep configuration,
// the runner's trial count and seed, and the shard's (bank, subarray)
// coordinates. The engine worker count is deliberately absent — results
// are bit-identical for every worker count, so it must not fragment the
// cache.
func (r *Runner) shardKey(spec dram.Spec, sc core.SweepConfig, env analog.Env, s bender.SubarraySample) cache.Key {
	return spec.HashModule(cache.NewHasher().Str("charexp/sweep-shard/v1"), r.paramsBlock()).
		F64(env.TempC).F64(env.VPP).F64(env.Aging).
		F64(env.Disturb).F64(env.Retention).
		Int(int(sc.Op)).Int(sc.X).Int(sc.N).
		F64(sc.Timings.T1).F64(sc.Timings.T2).Int(int(sc.Pattern)).
		Int(sc.SubarraysPerBank).Int(sc.GroupsPerSubarray).Int(sc.Banks).
		Int(r.cfg.Trials).U64(r.cfg.Seed).
		Int(s.Bank).Int(s.Subarray).
		Sum()
}

// boundSweep applies the runner's sampling bounds to a sweep cell.
func (r *Runner) boundSweep(sc core.SweepConfig) core.SweepConfig {
	sc.GroupsPerSubarray = r.cfg.GroupsPerSubarray
	sc.SubarraysPerBank = r.cfg.SubarraysPerBank
	sc.Banks = r.cfg.Banks
	return sc
}

// applies reports whether a module profile can run the sweep
// configuration (guarded chips and over-wide MAJ are skipped).
func applies(profile dram.Profile, sc core.SweepConfig) bool {
	if profile.APAGuarded {
		return false
	}
	if sc.Op == core.OpMAJ && sc.X > profile.MaxMAJ {
		return false
	}
	return true
}

// add bounds one sweep configuration with the runner's sampling bounds
// and enumerates its engine shards as the plan's next cell: one per
// applicable (module, bank, subarray), in fleet order. mfr restricts the
// fleet to one manufacturer ("" = all). The enumeration is deterministic,
// so the merged results match a sequential run exactly. applicable counts
// the modules that can run the configuration, letting callers distinguish
// "no capable module" from "no sampled subarrays".
//
// Enumeration is single-threaded, so it also resolves every sampled
// subarray: the module's lazy subarray map is guarded only per tester,
// and several testers of one module run in the same engine run.
func (p *sweepPlan) add(sc core.SweepConfig, env analog.Env, mfr string) (applicable int, err error) {
	r := p.r
	sc = r.boundSweep(sc)
	cell := len(p.cells)
	p.cells = append(p.cells, sc)
	for mi, mod := range r.mods {
		profile := mod.Spec().Profile
		if mfr != "" && profile.Name != mfr {
			continue
		}
		if !applies(profile, sc) {
			continue
		}
		applicable++
		tester, err := p.tester(mi, env)
		if err != nil {
			return 0, err
		}
		for _, s := range tester.SweepSamples(sc) {
			sa, err := mod.Subarray(s.Bank, s.Subarray)
			if err != nil {
				return 0, fmt.Errorf("charexp: module %s: %w", mod.Spec().ID, err)
			}
			lock := p.locks[sa]
			if lock == nil {
				lock = new(sync.Mutex)
				p.locks[sa] = lock
			}
			sh := sweepShard{
				shard:  engine.NewShard(r.cfg.Seed, mi, s.Bank, s.Subarray),
				tester: tester,
				sample: s,
				cell:   cell,
				lock:   lock,
			}
			if r.cfg.ShardMemo != nil || r.cfg.Dispatch != nil {
				sh.key = r.shardKey(mod.Spec(), sc, env, s)
			}
			if r.cfg.Dispatch != nil {
				sh.spec = &core.ShardSpec{
					Spec:   mod.Spec(),
					Params: r.cfg.Params,
					Block:  r.paramsBlock(),
					Env:    env,
					Sweep:  sc,
					Trials: r.cfg.Trials,
					Seed:   r.cfg.Seed,
					Sample: s,
				}
			}
			p.shards = append(p.shards, sh)
		}
	}
	return applicable, nil
}

// tester returns the plan's tester for module mi under env, building it
// on first use. The tester's per-group seeds hash the (bank, subarray,
// row) coordinates, so a shard's outcome is independent of scheduling.
// The tester runs each shard sequentially — parallelism lives at the
// shard level.
func (p *sweepPlan) tester(mi int, env analog.Env) (*core.Tester, error) {
	k := testerKey{module: mi, env: env}
	if t, ok := p.testers[k]; ok {
		return t, nil
	}
	r := p.r
	t, err := core.NewTester(r.mods[mi],
		core.WithEnv(env), core.WithTrials(r.cfg.Trials), core.WithSeed(r.cfg.Seed),
		core.WithWorkers(1), core.WithArenaPool(r.arenas))
	if err != nil {
		return nil, err
	}
	p.testers[k] = t
	return t, nil
}

// run executes every shard of the plan in one engine run and returns the
// per-shard group outcomes in enumeration order. With a ShardMemo
// configured, previously computed shards are served from it without
// re-simulating (engine.RunKeyed); with Config.Dispatch set, shard misses
// fan out to the worker fleet instead of executing in-process — both are
// bit-identical to a plain local run. Activations are only accounted for
// shards that actually execute (locally or via dispatch). Only local
// shard bodies take the subarray mutex: cached and dispatched shards
// never touch the runner's modules.
func (p *sweepPlan) run() ([][]core.GroupOutcome, error) {
	r := p.r
	tasks := make([]engine.Task[[]core.GroupOutcome], len(p.shards))
	for i := range p.shards {
		sh := &p.shards[i]
		tasks[i] = func(ctx context.Context) (out []core.GroupOutcome, err error) {
			if d := r.cfg.Dispatch; d != nil {
				out, err = engine.Dispatch[[]core.GroupOutcome](ctx, d, sh.key, "core", *sh.spec)
			} else {
				sh.lock.Lock()
				out, err = sh.tester.SweepShard(p.cells[sh.cell], sh.sample)
				sh.lock.Unlock()
			}
			if err != nil {
				return nil, fmt.Errorf("charexp: module %s: %w", sh.tester.Module().Spec().ID, err)
			}
			// One APA per trial per characterized group (§3.1).
			r.stats.AddActivations(len(out) * r.cfg.Trials)
			return out, nil
		}
	}
	if r.cfg.ShardMemo == nil {
		return engine.Run(context.Background(), r.cfg.Engine, r.stats, tasks)
	}
	keys := make([]engine.ShardKey, len(p.shards))
	for i := range p.shards {
		keys[i] = p.shards[i].key
	}
	return engine.RunKeyed(context.Background(), r.cfg.Engine, r.stats, r.cfg.ShardMemo, keys, tasks)
}
