package workload

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/analog"
	"repro/internal/bitserial"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/xrand"
)

// DefaultSeed feeds workload input generation when FleetConfig.Seed is 0.
const DefaultSeed = 0x307cad

// DefaultMaxX is the default majority-width cap. MAJ5 keeps the fused
// full-adder constructions available everywhere (both H and M profiles
// support it) while avoiding the reliability cliff of MAJ7/9 (Obs. 8).
const DefaultMaxX = 5

// FleetConfig scopes a fleet-wide workload run. Zero-value fields take the
// defaults documented per field.
type FleetConfig struct {
	// Entries is the module population (default: fleet.Representative over
	// 512-column subarray slices; use fleet.Modules for the full Table-2
	// run).
	Entries []fleet.Entry
	// Params is the electrical model (default: analog.DefaultParams).
	Params analog.Params
	// Workloads selects what runs on each module (default: All()).
	Workloads []Workload
	// MaxX bounds the majority width (default: DefaultMaxX; profiles may
	// bound it further).
	MaxX int
	// Seed is the root experiment seed (default: DefaultSeed). Per-module
	// sub-seeds hash the module's spec ID (not its fleet position),
	// per-workload streams additionally the workload name — so a result
	// is invariant to the worker count, to fleet composition (the same
	// module reports the same digest under -modules representative and
	// full), and to which other workloads were selected.
	Seed uint64
	// Engine bounds the shard parallelism; the zero value uses GOMAXPROCS
	// workers. Results are bit-identical for every worker count.
	Engine engine.Config
	// Memo optionally memoizes per-module workload shards across runs
	// (internal/cache.NewTyped over a shared cache satisfies it; see
	// DESIGN.md §9). Keys capture the module's identity — not its fleet
	// position — plus the electrical model, workload selection, MaxX and
	// seed, matching the sub-seed scheme: a cached result is bit-identical
	// to a recomputed one under any fleet composition. nil disables
	// memoization.
	Memo engine.Memo[[]Result]
	// Dispatch, when non-nil, routes per-module shard execution through a
	// worker fleet (internal/cluster's Coordinator satisfies it) instead
	// of running shard bodies in-process. Shards travel as ShardSpec
	// values keyed by the same `workload/module-shard/v1` content hashes
	// Memo uses, so a dispatched run is bit-identical to a local one. nil
	// executes every shard in-process.
	Dispatch engine.Dispatcher
	// Stats, when non-nil, accumulates engine progress counters in an
	// externally observable place — the job tier polls it for live
	// per-module progress. Never affects result bytes.
	Stats *engine.Stats
	// Pool, when non-nil, supplies the module instances shard work runs on
	// (the job executor's warmpool). Pooled instances are reset before
	// reuse, so results are bit-identical to freshly built modules.
	Pool dram.ModulePool

	// pb is the HashModule block of Params, resolved once per run by
	// RunFleet for every shard key and module of the run.
	pb dram.ParamsBlock
}

// DefaultFleetConfig returns the standard reduced-scale configuration: the
// representative fleet (one module per die group) on 512-column slices.
func DefaultFleetConfig() FleetConfig { return FleetConfig{}.withDefaults() }

// withDefaults resolves zero-value fields, building the default fleet
// only when no entries are given.
func (cfg FleetConfig) withDefaults() FleetConfig {
	if len(cfg.Entries) == 0 {
		fc := fleet.DefaultConfig()
		fc.Columns = 512
		cfg.Entries = fleet.Representative(fc)
	}
	if cfg.Params == (analog.Params{}) {
		cfg.Params = analog.DefaultParams()
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = All()
	}
	if cfg.MaxX == 0 {
		cfg.MaxX = DefaultMaxX
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	return cfg
}

// shardKey hashes everything one module's workload results depend on: the
// module's identity and electrical model (the shared dram.Spec.HashModule
// block), the selected workloads in execution order, the majority-width
// cap and the root seed. Like the sub-seed scheme, the key hashes the
// module's identity rather than its fleet position, and excludes the
// worker count (results are worker-invariant), so cache entries are
// shared across fleet selections.
func shardKey(e fleet.Entry, cfg FleetConfig) engine.ShardKey {
	h := e.Spec.HashModule(cache.NewHasher().Str("workload/module-shard/v1"), cfg.pb).
		Int(cfg.MaxX).U64(cfg.Seed)
	for _, w := range cfg.Workloads {
		h.Str(w.Name())
	}
	return h.Sum()
}

// nameSeed hashes an identity string (workload name, module ID) into a
// seed coordinate (FNV-1a).
func nameSeed(name string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return h
}

// defaultParamsBlock is the HashModule block of analog.DefaultParams,
// formatted once per process for the runs that use the default model.
// RunFleet picks it with ==, which matches only the identical bits
// because no default field is zero (so no -0 can compare equal and print
// differently); TestDefaultParamsNonZero pins that.
var defaultParamsBlock = sync.OnceValue(func() dram.ParamsBlock {
	return dram.FormatParams(analog.DefaultParams())
})

// RunFleet executes every configured workload on every module of the
// fleet. Modules are independent engine shards on the worker pool; within
// a shard, workloads execute in registry order, each on a freshly probed
// compute group. The shard sub-seed hashes the module's identity rather
// than its fleet index, so a result depends only on (module spec, root
// seed, workload) — not on worker count, sibling modules, or which other
// workloads were selected. Results are returned in (fleet order ×
// workload order).
func RunFleet(ctx context.Context, cfg FleetConfig) ([]Result, error) {
	cfg = cfg.withDefaults()
	cfg.pb = defaultParamsBlock()
	if cfg.Params != analog.DefaultParams() {
		cfg.pb = dram.FormatParams(cfg.Params)
	}
	if cfg.MaxX < 3 || cfg.MaxX%2 == 0 {
		return nil, fmt.Errorf("workload: MaxX %d must be odd and >= 3", cfg.MaxX)
	}
	tasks := make([]engine.Task[[]Result], len(cfg.Entries))
	keys := make([]engine.ShardKey, len(cfg.Entries))
	names := make([]string, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		names[i] = w.Name()
	}
	for mi, e := range cfg.Entries {
		seed := xrand.Hash(cfg.Seed, nameSeed(e.Spec.ID))
		e := e
		if cfg.Memo != nil || cfg.Dispatch != nil {
			keys[mi] = shardKey(e, cfg)
		}
		key := keys[mi]
		tasks[mi] = func(ctx context.Context) (out []Result, err error) {
			if d := cfg.Dispatch; d != nil {
				spec := ShardSpec{Entry: e, Params: cfg.Params, Block: cfg.pb, Workloads: names, MaxX: cfg.MaxX, Seed: cfg.Seed}
				if out, err = engine.Dispatch[[]Result](ctx, d, key, "workload", spec); err != nil {
					return nil, fmt.Errorf("workload: module %s: %w", e.Spec.ID, err)
				}
			} else if out, err = runModule(e, cfg, seed); err != nil {
				return nil, err
			}
			cfg.addActivations(out)
			return out, nil
		}
	}
	perModule, err := engine.RunKeyed(ctx, cfg.Engine, cfg.Stats, cfg.Memo, keys, tasks)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, rs := range perModule {
		out = append(out, rs...)
	}
	return out, nil
}

// runModule executes the configured workloads on one module (the compute
// subarray is bank 0, subarray 0). shardSeed is the module's
// identity-keyed sub-seed.
func runModule(e fleet.Entry, cfg FleetConfig, shardSeed uint64) ([]Result, error) {
	profile := e.Spec.Profile
	if profile.APAGuarded || profile.MaxMAJ < 3 {
		reason := "profile supports no usable majority width"
		if profile.APAGuarded {
			reason = "control circuitry guards against timing-violating APA (§9)"
		}
		out := make([]Result, 0, len(cfg.Workloads))
		for _, w := range cfg.Workloads {
			out = append(out, Result{
				Workload: w.Name(),
				Module:   e.Spec.ID,
				Profile:  profile.Name,
				DieRev:   e.Spec.DieRev,
				Viable:   false,
				Reason:   reason,
			})
		}
		return out, nil
	}
	mod, release, err := dram.PoolModule(cfg.Pool, e.Spec, cfg.Params, cfg.pb)
	if err != nil {
		return nil, fmt.Errorf("workload: module %s: %w", e.Spec.ID, err)
	}
	defer release()
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		return nil, fmt.Errorf("workload: module %s: %w", e.Spec.ID, err)
	}
	out := make([]Result, 0, len(cfg.Workloads))
	for _, w := range cfg.Workloads {
		// A fresh computer per workload: the probe re-selects the compute
		// group deterministically, so each result is independent of which
		// other workloads ran before it.
		c, err := bitserial.NewComputer(mod, sa, cfg.MaxX)
		if err != nil {
			return nil, fmt.Errorf("workload: module %s: %w", e.Spec.ID, err)
		}
		before := c.Counts()
		res, err := w.Run(c, xrand.Hash(shardSeed, nameSeed(w.Name())))
		if err != nil {
			return nil, fmt.Errorf("workload: module %s: %s: %w", e.Spec.ID, w.Name(), err)
		}
		res.Counts = countsDelta(before, c.Counts())
		out = append(out, newResult(w, e.Spec.ID, profile.Name, e.Spec.DieRev, c, res))
	}
	return out, nil
}

// addActivations reports the APAs one executed shard's computers issued
// to cfg.Stats: one per majority operation. Operand staging and NOT are
// row copies over the channel in the simulation, and memoized shards
// execute nothing, so neither counts.
func (cfg FleetConfig) addActivations(rs []Result) {
	if cfg.Stats == nil {
		return
	}
	n := 0
	for _, r := range rs {
		for _, ops := range r.Counts.MAJ {
			n += ops
		}
	}
	cfg.Stats.AddActivations(n)
}

// countsDelta subtracts two op-count snapshots.
func countsDelta(before, after bitserial.OpCounts) bitserial.OpCounts {
	d := bitserial.OpCounts{
		NOT:   after.NOT - before.NOT,
		Stage: after.Stage - before.Stage,
		MAJ:   make(map[int]int),
	}
	for x, n := range after.MAJ {
		if delta := n - before.MAJ[x]; delta > 0 {
			d.MAJ[x] = delta
		}
	}
	return d
}
