package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Envelope-cell statuses: the shape of a module's reliability boundary on
// the bisected axis.
const (
	// StatusMinViable: success rises with the axis; Boundary is the
	// smallest probed value meeting the target (e.g. minimum viable t2).
	StatusMinViable = "min-viable"
	// StatusMaxViable: success falls with the axis; Boundary is the
	// largest probed value meeting the target (e.g. maximum viable aging).
	StatusMaxViable = "max-viable"
	// StatusPass: the whole search range meets the target — no cliff.
	StatusPass = "pass"
	// StatusFail: no probed value meets the target.
	StatusFail = "fail"
)

// EnvelopeCell is one module's adaptive envelope-search outcome at one
// base point: the machine-readable rendering of the paper's reliability
// "cliff".
type EnvelopeCell struct {
	Module string
	Mfr    string
	// Base is the scenario point the search was anchored at; the bisected
	// axis field is overwritten per probe.
	Base Point
	// Lo/Hi are the search bounds; RateLo/RateHi the mean all-trials
	// success rates measured at them.
	Lo, Hi         float64
	RateLo, RateHi float64
	// Boundary is the axis value where success crosses the target,
	// resolved to (Hi-Lo)/2^Steps (NaN-free: for pass/fail cells it holds
	// the passing/failing bound).
	Boundary float64
	// Status is one of StatusMinViable, StatusMaxViable, StatusPass,
	// StatusFail.
	Status string
}

// runEnvelope bisects the envelope axis per (module, base point). Outer
// (module, base point) tasks run on the engine's worker pool; each
// bisection probes points sequentially, with every probe's (bank,
// subarray) shards memoized under the same scenario/point-shard/v1 keys
// the grid scan uses — so a scan warms the envelope search and vice
// versa.
func (cfg Config) runEnvelope(ctx context.Context, mods []*dram.Module) (*Result, error) {
	env, err := cfg.Envelope.withDefaults()
	if err != nil {
		return nil, err
	}
	// The bisected axis is removed from the grid: base points cross the
	// remaining axes only.
	grid := cfg.Grid
	switch env.Axis {
	case "t1":
		grid.T1 = nil
	case "t2":
		grid.T2 = nil
	case "temp":
		grid.Temp = nil
	case "vpp":
		grid.VPP = nil
	case "aging":
		grid.Aging = nil
	case "disturb":
		grid.Disturb = nil
	case "retention":
		grid.Retention = nil
	}
	base := grid.withDefaults(cfg.Op).points(cfg.Op)
	probes := make([]Point, 0, 2*len(base))
	for _, p := range base {
		probes = append(probes, p.withAxis(env.Axis, env.Lo), p.withAxis(env.Axis, env.Hi))
	}
	if err := cfg.validate(probes); err != nil {
		return nil, err
	}

	type outerTask struct {
		point Point
		mi    int
	}
	var outer []outerTask
	for _, p := range base {
		for mi, mod := range mods {
			if !applies(mod.Spec().Profile, cfg.Op, p) {
				continue
			}
			outer = append(outer, outerTask{point: p, mi: mi})
		}
	}
	if len(outer) == 0 {
		return nil, fmt.Errorf("scenario: no module in the fleet can run any envelope base point")
	}

	st := cfg.statsAccumulator()
	tasks := make([]engine.Task[EnvelopeCell], len(outer))
	for i, ot := range outer {
		ot := ot
		tasks[i] = func(ctx context.Context) (EnvelopeCell, error) {
			return cfg.bisectModule(ctx, ot.point, cfg.Fleet[ot.mi].Spec, env, st)
		}
	}
	cells, err := engine.Run(ctx, cfg.Engine, nil, tasks)
	if err != nil {
		return nil, err
	}
	res := &Result{Op: cfg.Op, Axis: env.Axis, Target: env.Target, Cells: cells}
	res.Stats = st.Snapshot()
	return res, nil
}

// evalPoint measures one module's mean all-trials success at one point:
// an inner sequential engine run over the module's (bank, subarray)
// shards, served from the shard memo when warm.
func (cfg Config) evalPoint(ctx context.Context, spec dram.Spec, p Point, st *engine.Stats) (float64, error) {
	mod, release, err := dram.PoolModule(cfg.Pool, spec, cfg.Params, cfg.pb)
	if err != nil {
		return 0, err
	}
	samples := cfg.samples(mod)
	release() // only needed for sampling; shard work checks out its own
	if len(samples) == 0 {
		return 0, fmt.Errorf("scenario: module %s sampled no subarrays", spec.ID)
	}
	tasks := make([]engine.Task[[]core.GroupOutcome], len(samples))
	keys := make([]engine.ShardKey, len(samples))
	for i, s := range samples {
		sh := pointShard{point: p, spec: spec, sample: s}
		if cfg.Memo != nil || cfg.Dispatch != nil {
			sh.key = shardKey(spec, cfg.pb, cfg.Op, p,
				cfg.Trials, cfg.SubarraysPerBank, cfg.GroupsPerSubarray, cfg.Banks,
				cfg.Seed, s)
			keys[i] = sh.key
		}
		tasks[i] = cfg.shardTask(sh, st)
	}
	outcomes, err := engine.RunKeyed(ctx, engine.Config{Workers: 1}, st, cfg.Memo, keys, tasks)
	if err != nil {
		return 0, err
	}
	var rates []float64
	for _, out := range outcomes {
		for _, o := range out {
			rates = append(rates, o.Result.Rate())
		}
	}
	if len(rates) == 0 {
		return 0, fmt.Errorf("scenario: module %s sampled no groups at %+v", spec.ID, p)
	}
	return stats.MustSummarize(rates).Mean, nil
}

// bisectModule locates one module's reliability boundary on the envelope
// axis at one base point. The search is purely deterministic: endpoint
// probes classify the cell, then Steps bisection iterations shrink the
// bracket that contains the target crossing.
func (cfg Config) bisectModule(ctx context.Context, base Point, spec dram.Spec,
	env Envelope, st *engine.Stats) (EnvelopeCell, error) {

	eval := func(v float64) (float64, error) {
		return cfg.evalPoint(ctx, spec, base.withAxis(env.Axis, v), st)
	}
	cell := EnvelopeCell{
		Module: spec.ID,
		Mfr:    spec.Profile.Name,
		Base:   base,
		Lo:     env.Lo,
		Hi:     env.Hi,
	}
	rateLo, err := eval(env.Lo)
	if err != nil {
		return cell, err
	}
	rateHi, err := eval(env.Hi)
	if err != nil {
		return cell, err
	}
	cell.RateLo, cell.RateHi = rateLo, rateHi

	okLo, okHi := rateLo >= env.Target, rateHi >= env.Target
	lo, hi := env.Lo, env.Hi
	switch {
	case okLo && okHi:
		cell.Status = StatusPass
		cell.Boundary = env.Lo
	case !okLo && !okHi:
		cell.Status = StatusFail
		cell.Boundary = env.Hi
	case !okLo && okHi:
		// Success rises with the axis: shrink [lo, hi] keeping
		// rate(lo) < target <= rate(hi); hi converges on the smallest
		// viable value.
		for i := 0; i < env.Steps; i++ {
			mid := (lo + hi) / 2
			r, err := eval(mid)
			if err != nil {
				return cell, err
			}
			if r >= env.Target {
				hi = mid
			} else {
				lo = mid
			}
		}
		cell.Status = StatusMinViable
		cell.Boundary = hi
	default:
		// Success falls with the axis: keep rate(lo) >= target > rate(hi);
		// lo converges on the largest viable value.
		for i := 0; i < env.Steps; i++ {
			mid := (lo + hi) / 2
			r, err := eval(mid)
			if err != nil {
				return cell, err
			}
			if r >= env.Target {
				lo = mid
			} else {
				hi = mid
			}
		}
		cell.Status = StatusMaxViable
		cell.Boundary = lo
	}
	return cell, nil
}
