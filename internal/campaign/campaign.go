// Package campaign is the fleet-design campaign runner: it searches
// compositions of the Table-2 module die groups for the mix that
// maximizes reliable throughput per watt on a target workload. Every
// candidate mix is evaluated in two phases — the union of its modules
// runs the workload once each (the per-module shards of
// internal/workload, shared with every other candidate that uses the
// same module), then each candidate's aggregate score is itself an
// engine shard with its own content-addressed memo key
// (`campaign/candidate/v1`) — so campaigns are deterministic,
// cache-addressed, and bit-identical for every worker count, cache mode
// and cluster fan-out.
package campaign

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/analog"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// DefaultFleetSize is the number of modules a candidate mix deploys.
const DefaultFleetSize = 3

// DefaultTop is how many ranked candidates the report shows.
const DefaultTop = 10

// MaxFleetSize bounds the candidate enumeration (compositions grow
// combinatorially with the fleet size).
const MaxFleetSize = 6

// Group is one Table-2 die group: the modules sharing a (manufacturer,
// die revision, subarray geometry) identity, in fleet order.
type Group struct {
	// Label identifies the group: "mfr/dieRev/decoderRows" (the same
	// identity key fleet.Representative dedupes on).
	Label string
	// Entries are the group's modules, in Table-2 order. Distinct entries
	// carry distinct process-variation seeds, so deploying k copies from a
	// group means k physically distinct modules.
	Entries []fleet.Entry
}

// Eval is one candidate's memoized evaluation: the aggregate over its
// modules' workload results. Non-viable (guarded) modules contribute
// nothing to either sum.
type Eval struct {
	// ThroughputMbps is Σ over viable modules of throughput × success
	// rate: the mix's reliable throughput.
	ThroughputMbps float64
	// PowerW is Σ over viable modules of energy/time (nJ/ns = W).
	PowerW float64
	// Score is reliable throughput per watt (0 when no module is viable).
	Score float64
	// Viable counts the mix's viable modules.
	Viable int
}

// Candidate is one ranked row of the campaign report.
type Candidate struct {
	// Rank is the candidate's 1-based position in the score ordering
	// (ties broken by enumeration order).
	Rank int
	// Counts is the mix: how many modules the candidate deploys from each
	// group, indexed like Result.Groups.
	Counts []int
	// Modules are the deployed module IDs (the first Counts[i] entries of
	// each group), in fleet order.
	Modules []string
	Eval
}

// Result is a completed campaign: the ranked top candidates plus the
// search's shape.
type Result struct {
	// Workload is the target workload's name.
	Workload string
	// FleetSize is the size of every candidate mix.
	FleetSize int
	// Groups are the die groups the search composes over.
	Groups []Group
	// Total is how many candidate mixes were evaluated.
	Total int
	// Candidates are the ranked top candidates (at most Config.Top).
	Candidates []Candidate
	// Stats snapshots the engine counters across both phases.
	Stats engine.Snapshot
}

// Config scopes one campaign run. Create via Options.Resolve (the CLI and
// serving layer's shared path) or fill the fields directly.
type Config struct {
	// Workload is the target workload the mix is designed for.
	Workload workload.Workload
	// FleetSize is the number of modules per candidate mix (0 =
	// DefaultFleetSize; at most MaxFleetSize).
	FleetSize int
	// Top bounds the ranked candidates in the result (0 = DefaultTop).
	Top int
	// Params is the electrical model (zero value = analog.DefaultParams).
	Params analog.Params
	// Columns is the simulated subarray slice width (0 = 512).
	Columns int
	// MaxX caps the majority width (0 = workload.DefaultMaxX).
	MaxX int
	// Seed is the root experiment seed (0 = workload.DefaultSeed).
	Seed uint64
	// Engine bounds the shard parallelism; results are bit-identical for
	// every worker count.
	Engine engine.Config
	// ModMemo memoizes phase-1 per-module workload shards (the same
	// `workload/module-shard/v1` keys cmd/simra-work and /v1/workload
	// use, so a campaign warms workload requests and vice versa).
	ModMemo engine.Memo[[]workload.Result]
	// Memo memoizes phase-2 candidate evaluations under their
	// `campaign/candidate/v1` content keys.
	Memo engine.Memo[Eval]
	// Dispatch, when non-nil, fans phase-1 module shards out over a worker
	// fleet (candidate aggregation is pure arithmetic and always runs
	// locally). Dispatched runs are bit-identical to local ones.
	Dispatch engine.Dispatcher
	// Stats, when non-nil, accumulates engine progress across both phases
	// (the job tier polls it). Never affects result bytes.
	Stats *engine.Stats
	// Pool, when non-nil, supplies warm module instances for phase-1 shard
	// work.
	Pool dram.ModulePool
}

// withDefaults resolves zero-value fields.
func (cfg Config) withDefaults() Config {
	if cfg.FleetSize == 0 {
		cfg.FleetSize = DefaultFleetSize
	}
	if cfg.Top == 0 {
		cfg.Top = DefaultTop
	}
	if cfg.Params == (analog.Params{}) {
		cfg.Params = analog.DefaultParams()
	}
	if cfg.Columns == 0 {
		cfg.Columns = 512
	}
	if cfg.MaxX == 0 {
		cfg.MaxX = workload.DefaultMaxX
	}
	if cfg.Seed == 0 {
		cfg.Seed = workload.DefaultSeed
	}
	return cfg
}

// ModuleGroups partitions the Table-2 fleet into its die groups,
// preserving fleet order within and across groups.
func ModuleGroups(fc fleet.Config) []Group {
	var out []Group
	index := map[string]int{}
	for _, e := range fleet.Modules(fc) {
		key := fmt.Sprintf("%s/%s/%d",
			e.Spec.Profile.Name, e.Spec.DieRev, e.Spec.Profile.Decoder.Rows)
		i, ok := index[key]
		if !ok {
			i = len(out)
			index[key] = i
			out = append(out, Group{Label: key})
		}
		out[i].Entries = append(out[i].Entries, e)
	}
	return out
}

// compositions enumerates every way to split total modules across the
// groups without exceeding any group's capacity, in lexicographic order
// of the count vector. The order is the candidate enumeration index —
// the deterministic tiebreaker of the final ranking.
func compositions(caps []int, total int) [][]int {
	var out [][]int
	counts := make([]int, len(caps))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(caps)-1 {
			if remaining <= caps[i] {
				counts[i] = remaining
				out = append(out, append([]int(nil), counts...))
			}
			return
		}
		max := remaining
		if max > caps[i] {
			max = caps[i]
		}
		for c := 0; c <= max; c++ {
			counts[i] = c
			rec(i+1, remaining-c)
		}
	}
	rec(0, total)
	return out
}

// candidateEntries resolves a count vector to its module entries: the
// first Counts[i] entries of each group. Distinct entries carry distinct
// spec seeds, so every deployed copy has its own physics.
func candidateEntries(groups []Group, counts []int) []fleet.Entry {
	var out []fleet.Entry
	for gi, n := range counts {
		out = append(out, groups[gi].Entries[:n]...)
	}
	return out
}

// candidateKey hashes everything one candidate's evaluation depends on:
// the identity and electrical model of every deployed module (the shared
// dram.Spec.HashModule block, which also covers the mix's counts — the
// module sets of distinct mixes differ), the target workload, the
// majority-width cap and the root seed. Worker count and cache mode are
// deliberately absent: the evaluation is invariant to both.
func candidateKey(entries []fleet.Entry, pb dram.ParamsBlock, wl string, maxX int, seed uint64) engine.ShardKey {
	h := cache.NewHasher().Str("campaign/candidate/v1")
	for _, e := range entries {
		h = e.Spec.HashModule(h, pb)
	}
	return h.Str(wl).Int(maxX).U64(seed).Sum()
}

// evalCandidate aggregates one candidate mix from the phase-1 per-module
// results: reliable throughput (throughput × success), power
// (energy/time), and their ratio. Addition runs in fleet order, so the
// floats are bit-identical across runs.
func evalCandidate(entries []fleet.Entry, byModule map[string]workload.Result) (Eval, error) {
	var ev Eval
	for _, e := range entries {
		r, ok := byModule[e.Spec.ID]
		if !ok {
			return Eval{}, fmt.Errorf("campaign: module %s missing from the workload phase", e.Spec.ID)
		}
		if !r.Viable {
			continue
		}
		ev.Viable++
		ev.ThroughputMbps += r.ThroughputMbps * r.SuccessRate()
		ev.PowerW += r.EnergyNJ / r.TimeNS
	}
	if ev.PowerW > 0 {
		ev.Score = ev.ThroughputMbps / ev.PowerW
	}
	return ev, nil
}

// Run executes the campaign: enumerate candidate mixes, run the target
// workload once per distinct module (phase 1), evaluate every candidate
// as a keyed engine shard (phase 2), and rank by reliable throughput per
// watt (score descending, enumeration order breaking ties).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("campaign: no target workload")
	}
	if cfg.FleetSize < 1 || cfg.FleetSize > MaxFleetSize {
		return nil, fmt.Errorf("campaign: fleet size %d out of range; valid: %s",
			cfg.FleetSize, fleetSizeList())
	}
	if cfg.Top < 0 {
		return nil, fmt.Errorf("campaign: top %d must be >= 0", cfg.Top)
	}

	fc := fleet.DefaultConfig()
	fc.Columns = cfg.Columns
	groups := ModuleGroups(fc)
	caps := make([]int, len(groups))
	for i, g := range groups {
		caps[i] = len(g.Entries)
	}
	mixes := compositions(caps, cfg.FleetSize)
	if len(mixes) == 0 {
		return nil, fmt.Errorf("campaign: no candidate mix of %d modules fits the group capacities", cfg.FleetSize)
	}
	st := cfg.Stats
	if st == nil {
		st = new(engine.Stats)
	}

	// Phase 1: the union of modules any candidate deploys (the first
	// min(capacity, fleet size) entries of each group) runs the target
	// workload, one engine shard per module under the shared
	// workload/module-shard keys.
	var union []fleet.Entry
	for _, g := range groups {
		n := cfg.FleetSize
		if n > len(g.Entries) {
			n = len(g.Entries)
		}
		union = append(union, g.Entries[:n]...)
	}
	wcfg := workload.FleetConfig{
		Entries:   union,
		Params:    cfg.Params,
		Workloads: []workload.Workload{cfg.Workload},
		MaxX:      cfg.MaxX,
		Seed:      cfg.Seed,
		Engine:    cfg.Engine,
		Memo:      cfg.ModMemo,
		Dispatch:  cfg.Dispatch,
		Stats:     st,
		Pool:      cfg.Pool,
	}
	results, err := workload.RunFleet(ctx, wcfg)
	if err != nil {
		return nil, err
	}
	byModule := make(map[string]workload.Result, len(results))
	for _, r := range results {
		byModule[r.Module] = r
	}

	// Phase 2: every candidate evaluation is a keyed engine shard —
	// memoized under campaign/candidate/v1, bit-identical for any worker
	// count, and pure arithmetic over the phase-1 results.
	keys := make([]engine.ShardKey, len(mixes))
	tasks := make([]engine.Task[Eval], len(mixes))
	wlName := cfg.Workload.Name()
	pb := dram.FormatParams(cfg.Params)
	for i, counts := range mixes {
		entries := candidateEntries(groups, counts)
		if cfg.Memo != nil {
			keys[i] = candidateKey(entries, pb, wlName, cfg.MaxX, cfg.Seed)
		}
		tasks[i] = func(context.Context) (Eval, error) {
			return evalCandidate(entries, byModule)
		}
	}
	evals, err := engine.RunKeyed(ctx, cfg.Engine, st, cfg.Memo, keys, tasks)
	if err != nil {
		return nil, err
	}

	ranked := make([]Candidate, len(mixes))
	for i, counts := range mixes {
		entries := candidateEntries(groups, counts)
		ids := make([]string, len(entries))
		for j, e := range entries {
			ids[j] = e.Spec.ID
		}
		ranked[i] = Candidate{Counts: counts, Modules: ids, Eval: evals[i]}
	}
	order := make([]int, len(ranked))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ranked[order[a]].Score > ranked[order[b]].Score
	})
	top := cfg.Top
	if top > len(order) {
		top = len(order)
	}
	out := &Result{
		Workload:  wlName,
		FleetSize: cfg.FleetSize,
		Groups:    groups,
		Total:     len(mixes),
	}
	for rank, oi := range order[:top] {
		c := ranked[oi]
		c.Rank = rank + 1
		out.Candidates = append(out.Candidates, c)
	}
	out.Stats = st.Snapshot()
	return out, nil
}
