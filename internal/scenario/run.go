package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/bender"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/stats"
)

// ModulePoint is one module's aggregate at one scenario point.
type ModulePoint struct {
	Module string
	Mfr    string
	Mean   float64
	Groups int
}

// PointResult aggregates one scenario point across the applicable fleet.
type PointResult struct {
	Point Point
	// Pooled summarizes the per-group success rates across every
	// applicable module (sorted before aggregation, so it is invariant to
	// fleet order).
	Pooled stats.Summary
	// Modules carries per-module means in fleet order. A module's value
	// depends only on its spec, the electrical model, the point and the
	// seed — never on sibling modules or worker count.
	Modules []ModulePoint
}

// Result is a completed scenario run: grid mode fills Points, envelope
// mode fills Cells.
type Result struct {
	Op         core.OpKind
	Target     float64 // envelope mode only
	Axis       string  // envelope mode only
	Points     []PointResult
	Cells      []EnvelopeCell
	Stats      engine.Snapshot
	applicable int // module×point cells that ran (grid mode)
}

// shardKey hashes everything one (point, module, bank, subarray) shard's
// outcome depends on: the module's identity and electrical model (the
// shared dram.Spec.HashModule block), the full scenario point (timings,
// environment including aging, pattern, widths), the sampling bounds,
// trial count and seed, and the shard's coordinates. The engine worker
// count and the module's fleet position are deliberately absent —
// results are invariant to both, so including them would only fragment
// the cache.
func shardKey(spec dram.Spec, pb dram.ParamsBlock, op core.OpKind, p Point,
	trials, subarrays, groups, banks int, seed uint64, s bender.SubarraySample) engine.ShardKey {

	return spec.HashModule(cache.NewHasher().Str("scenario/point-shard/v1"), pb).
		Int(int(op)).Int(p.X).Int(p.N).
		F64(p.T1).F64(p.T2).Int(int(p.Pattern)).
		F64(p.TempC).F64(p.VPP).F64(p.Aging).
		F64(p.Disturb).F64(p.Retention).
		Str(p.Mit.Kind).Int(p.Mit.Level).
		Int(subarrays).Int(groups).Int(banks).
		Int(trials).U64(seed).
		Int(s.Bank).Int(s.Subarray).
		Sum()
}

// pointShard binds one engine shard to its scenario coordinates.
type pointShard struct {
	pi, mi int
	point  Point
	spec   dram.Spec
	sample bender.SubarraySample
	key    engine.ShardKey
}

// runShard characterizes one (point, module, bank, subarray) cell on a
// private module instance: shards never share mutable subarray state, so
// every cell of the matrix can execute concurrently. The subarray's
// static tables derive deterministically from the spec seed and are
// shared process-wide by simulation identity (dram's table registry), so
// grid points over the same module reuse one derivation instead of
// re-deriving per private instance — bit-identical either way, and, with
// Config.Pool set, identical on a recycled warmpool instance too (pools
// reset dynamic state on Put; scenario_test pins the derivation counts).
func (cfg Config) runShard(sh pointShard, st *engine.Stats) ([]core.GroupOutcome, error) {
	mod, release, err := dram.PoolModule(cfg.Pool, sh.spec, cfg.Params, cfg.pb)
	if err != nil {
		return nil, fmt.Errorf("scenario: module %s: %w", sh.spec.ID, err)
	}
	defer release()
	tester, err := core.NewTester(mod,
		core.WithEnv(sh.point.Env()), core.WithTrials(cfg.Trials),
		core.WithSeed(cfg.Seed), core.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("scenario: module %s: %w", sh.spec.ID, err)
	}
	out, err := tester.SweepShard(cfg.sweepConfig(sh.point), sh.sample)
	if err != nil {
		return nil, fmt.Errorf("scenario: module %s: %w", sh.spec.ID, err)
	}
	if st != nil {
		st.AddActivations(len(out) * cfg.Trials)
	}
	return out, nil
}

// shardTask builds the engine task of one point shard: the in-process
// shard body, or — with Config.Dispatch set — a fan-out to the worker
// fleet carrying the shard's serialized core.ShardSpec. Both paths
// produce bit-identical outcomes (the cluster invariance suite asserts
// it).
func (cfg Config) shardTask(sh pointShard, st *engine.Stats) engine.Task[[]core.GroupOutcome] {
	d := cfg.Dispatch
	if d == nil {
		return func(context.Context) ([]core.GroupOutcome, error) {
			return cfg.runShard(sh, st)
		}
	}
	spec := core.ShardSpec{
		Spec:   sh.spec,
		Params: cfg.Params,
		Block:  cfg.pb,
		Env:    sh.point.Env(),
		Sweep:  cfg.sweepConfig(sh.point),
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
		Sample: sh.sample,
	}
	return func(ctx context.Context) ([]core.GroupOutcome, error) {
		b, err := d.ExecShard(ctx, sh.key, "core", spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: module %s: %w", sh.spec.ID, err)
		}
		var out []core.GroupOutcome
		if err := json.Unmarshal(b, &out); err != nil {
			return nil, fmt.Errorf("scenario: module %s: decode shard: %w", sh.spec.ID, err)
		}
		if st != nil {
			st.AddActivations(len(out) * cfg.Trials)
		}
		return out, nil
	}
}

// statsAccumulator returns the run's progress accumulator: the externally
// supplied Config.Stats when set (live job-tier progress), otherwise a
// fresh run-private one.
func (cfg Config) statsAccumulator() *engine.Stats {
	if cfg.Stats != nil {
		return cfg.Stats
	}
	return new(engine.Stats)
}

// samples enumerates the deterministic (bank, subarray) samples of one
// module, mirroring core.Tester.SweepSamples without instantiating cell
// state.
func (cfg Config) samples(mod *dram.Module) []bender.SubarraySample {
	all := bender.SampleSubarrays(mod, cfg.SubarraysPerBank, cfg.Seed)
	if cfg.Banks <= 0 {
		return all
	}
	// SampleSubarrays returns a shared read-only slice — filter into a
	// fresh one.
	filtered := make([]bender.SubarraySample, 0, len(all))
	for _, s := range all {
		if s.Bank < cfg.Banks {
			filtered = append(filtered, s)
		}
	}
	return filtered
}

// Run executes the scenario configuration: a grid scan over
// Config.Grid's cross product, or — with Config.Envelope set — an
// adaptive envelope search on the chosen axis. Results are bit-identical
// for every worker count and cache mode.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	cfg.pb = dram.FormatParams(cfg.Params)
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("scenario: empty fleet")
	}
	// One instantiated module per entry for sampling and validation only;
	// shard work runs on private instances.
	mods, err := fleet.BuildFrom(nil, cfg.Fleet, cfg.Params, cfg.pb)
	if err != nil {
		return nil, err
	}
	if cfg.Envelope != nil {
		return cfg.runEnvelope(ctx, mods)
	}
	return cfg.runGrid(ctx, mods)
}

// runGrid executes the full scenario matrix as one engine run: every
// (point, module, bank, subarray) cell is an independent shard.
func (cfg Config) runGrid(ctx context.Context, mods []*dram.Module) (*Result, error) {
	points := cfg.Grid.withDefaults(cfg.Op).points(cfg.Op)
	if err := cfg.validate(points); err != nil {
		return nil, err
	}

	var shards []pointShard
	applicable := 0
	for pi, p := range points {
		for mi, mod := range mods {
			if !applies(mod.Spec().Profile, cfg.Op, p) {
				continue
			}
			applicable++
			for _, s := range cfg.samples(mod) {
				sh := pointShard{pi: pi, mi: mi, point: p, spec: mod.Spec(), sample: s}
				if cfg.Memo != nil || cfg.Dispatch != nil {
					sh.key = shardKey(mod.Spec(), cfg.pb, cfg.Op, p,
						cfg.Trials, cfg.SubarraysPerBank, cfg.GroupsPerSubarray, cfg.Banks,
						cfg.Seed, s)
				}
				shards = append(shards, sh)
			}
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("scenario: no module in the fleet can run any scenario point")
	}

	st := cfg.statsAccumulator()
	tasks := make([]engine.Task[[]core.GroupOutcome], len(shards))
	keys := make([]engine.ShardKey, len(shards))
	for i, sh := range shards {
		tasks[i] = cfg.shardTask(sh, st)
		keys[i] = sh.key
	}
	outcomes, err := engine.RunKeyed(ctx, cfg.Engine, st, cfg.Memo, keys, tasks)
	if err != nil {
		return nil, err
	}

	res := &Result{Op: cfg.Op, applicable: applicable}
	for pi, p := range points {
		pr := PointResult{Point: p}
		var pooled []float64
		perMod := make(map[int][]float64)
		for i, sh := range shards {
			if sh.pi != pi {
				continue
			}
			for _, o := range outcomes[i] {
				rate := o.Result.Rate()
				pooled = append(pooled, rate)
				perMod[sh.mi] = append(perMod[sh.mi], rate)
			}
		}
		if len(pooled) == 0 {
			return nil, fmt.Errorf("scenario: point %+v sampled no groups; check the sampling bounds", p)
		}
		pr.Pooled = stats.MustSummarize(pooled)
		for mi, mod := range mods {
			rates, ok := perMod[mi]
			if !ok {
				continue
			}
			pr.Modules = append(pr.Modules, ModulePoint{
				Module: mod.Spec().ID,
				Mfr:    mod.Spec().Profile.Name,
				Mean:   stats.MustSummarize(rates).Mean,
				Groups: len(rates),
			})
		}
		res.Points = append(res.Points, pr)
	}
	res.Stats = st.Snapshot()
	return res, nil
}
