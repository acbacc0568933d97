// Package charexp is the characterization harness: one runner per table
// and figure of the paper's evaluation, producing the same rows/series the
// paper reports. Each FigureN method reproduces the corresponding figure;
// results carry both structured data (asserted by the observation tests)
// and a rendered table (printed by cmd/simra-char and recorded in
// EXPERIMENTS.md).
package charexp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// Config scopes a characterization run.
type Config struct {
	// Fleet is the module population (default: fleet.Representative — one
	// module per die group; use fleet.Modules for the full Table 1/2 run).
	Fleet []fleet.Entry
	// Params is the electrical model (default: analog.DefaultParams).
	Params analog.Params
	// Trials per row group (default 4; the paper uses 10000 — see
	// DESIGN.md §5 on why the metric converges quickly here).
	Trials int
	// GroupsPerSubarray, SubarraysPerBank and Banks bound the sampling per
	// module (paper: 100 groups × 3 subarrays × 16 banks).
	GroupsPerSubarray int
	SubarraysPerBank  int
	Banks             int
	// Seed feeds group sampling and data generation.
	Seed uint64
	// Engine bounds the execution engine's shard parallelism (see
	// internal/engine and DESIGN.md §6). The zero value uses GOMAXPROCS
	// workers; results are bit-identical for every worker count.
	Engine engine.Config
	// ShardMemo optionally memoizes per-(module, bank, subarray) sweep
	// shard outcomes across runs and runners (internal/cache.NewTyped over
	// a shared cache satisfies it; see DESIGN.md §9). Keys capture the
	// module spec, electrical parameters, environment, sweep configuration,
	// sampling bounds and seed, so a memoized sweep is bit-identical to an
	// uncached one. nil disables memoization.
	ShardMemo engine.Memo[[]core.GroupOutcome]
	// Dispatch, when non-nil, routes shard execution through a worker
	// fleet (internal/cluster's Coordinator satisfies it) instead of
	// running shard bodies in-process. Shards travel as serialized
	// core.ShardSpec values keyed by the same content hashes ShardMemo
	// uses, so a dispatched run is bit-identical to a local one. nil
	// executes every shard in-process.
	Dispatch engine.Dispatcher
	// Stats, when non-nil, is the runner's progress accumulator — shared
	// with the caller so the job tier can poll live per-shard progress
	// while a figure runs. nil keeps a runner-private accumulator. Never
	// affects result bytes.
	Stats *engine.Stats
	// Pool, when non-nil, supplies the runner's fleet instances (the job
	// executor's warmpool); callers that set it must Release the runner
	// when done. Pooled instances are reset before reuse, so results are
	// bit-identical to freshly built modules.
	Pool dram.ModulePool
}

// DefaultConfig returns the standard reduced-scale configuration used by
// the examples and benchmarks. It samples ~2 orders of magnitude fewer
// (group × trial) instances than the paper; sampling is deterministic.
func DefaultConfig() Config {
	fc := fleet.DefaultConfig()
	fc.Columns = 512
	return Config{
		Fleet:             fleet.Representative(fc),
		Params:            analog.DefaultParams(),
		Trials:            4,
		GroupsPerSubarray: 6,
		SubarraysPerBank:  1,
		Banks:             2,
		Seed:              0xd5a,
	}
}

// Runner executes experiments against an instantiated fleet. Sweeps are
// sharded per (module, bank, subarray) and executed on the engine's
// worker pool; the runner accumulates progress counters across them.
type Runner struct {
	cfg   Config
	mods  []*dram.Module
	stats *engine.Stats
	// arenas is the run-scoped scratch pool handed to every tester the
	// runner builds, so concurrent shard kernels reuse arenas within the
	// run without contending with unrelated runs.
	arenas *core.ArenaPool
	// gridRef, when non-nil, runs figure grids in place of the batched
	// plan. Only the differential tests set it, to their per-cell
	// reference loop.
	gridRef func(cells []sweepCell) ([][]float64, error)
	// pb is the HashModule block of cfg.Params, shared by every module
	// and shard key the runner builds. paramsBlock formats it on first
	// use, so a Runner made without NewRunner still keys correctly.
	pbOnce sync.Once
	pb     dram.ParamsBlock
}

// NewRunner instantiates the fleet of the configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("charexp: empty fleet")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("charexp: trials must be positive")
	}
	r := &Runner{cfg: cfg, stats: cfg.Stats, arenas: core.NewArenaPool()}
	if r.stats == nil {
		r.stats = new(engine.Stats)
	}
	mods, err := fleet.BuildFrom(cfg.Pool, cfg.Fleet, cfg.Params, r.paramsBlock())
	if err != nil {
		return nil, err
	}
	r.mods = mods
	return r, nil
}

// paramsBlock returns the HashModule block of the runner's params.
func (r *Runner) paramsBlock() dram.ParamsBlock {
	r.pbOnce.Do(func() { r.pb = dram.FormatParams(r.cfg.Params) })
	return r.pb
}

// Modules exposes the instantiated fleet (used by the case studies).
func (r *Runner) Modules() []*dram.Module { return r.mods }

// Release returns the runner's fleet instances to Config.Pool (a no-op
// without one). The runner must not be used afterwards.
func (r *Runner) Release() {
	fleet.Release(r.cfg.Pool, r.mods)
	r.mods = nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// Stats returns a snapshot of the execution engine's progress counters
// accumulated across every sweep this runner has executed.
func (r *Runner) Stats() engine.Snapshot { return r.stats.Snapshot() }

// pooledSweeps runs every cell of a figure grid across every applicable
// module of the fleet and pools each cell's per-group success rates,
// mirroring the paper's "distribution across all tested row groups in all
// DRAM chips"; rates[i] belongs to cells[i]. Modules whose profile cannot
// run a cell's configuration (MAJ width beyond MaxMAJ, guarded chips) are
// skipped; an error is returned if no module applies to some cell. The
// shards of all cells — one per (module, bank, subarray) and cell — are
// enumerated first, so an enumeration error surfaces before any shard
// runs, and then execute as one engine run on the worker pool.
func (r *Runner) pooledSweeps(cells []sweepCell) ([][]float64, error) {
	if r.gridRef != nil {
		return r.gridRef(cells)
	}
	p := r.newSweepPlan()
	ends := make([]int, len(cells))
	for i, c := range cells {
		start := len(p.shards)
		applicable, err := p.add(c.sc, c.env, "")
		if err != nil {
			return nil, err
		}
		if applicable == 0 {
			return nil, fmt.Errorf("charexp: no module in the fleet can run %v (X=%d)", c.sc.Op, c.sc.X)
		}
		if len(p.shards) == start {
			return nil, fmt.Errorf("charexp: %v (X=%d): no subarrays sampled; check the sampling bounds", c.sc.Op, c.sc.X)
		}
		ends[i] = len(p.shards)
	}
	outcomes, err := p.run()
	if err != nil {
		return nil, err
	}
	groups := 0
	for _, out := range outcomes {
		groups += len(out)
	}
	// One backing array for every cell's rates; each cell's slice is
	// capped so it can never grow into its neighbour's.
	all := make([]float64, 0, groups)
	rates := make([][]float64, len(cells))
	start := 0
	for i, end := range ends {
		from := len(all)
		for _, out := range outcomes[start:end] {
			for _, o := range out {
				all = append(all, o.Result.Rate())
			}
		}
		rates[i] = all[from:len(all):len(all)]
		start = end
	}
	return rates, nil
}

// bestSweepRate returns the highest per-group success rate across modules
// of one manufacturer for a MAJ configuration (the §8.1 "highest
// throughput group" selection).
func (r *Runner) bestSweepRate(mfr string, sc core.SweepConfig, env analog.Env) (float64, error) {
	p := r.newSweepPlan()
	applicable, err := p.add(sc, env, mfr)
	if err != nil {
		return 0, err
	}
	if applicable == 0 {
		return 0, fmt.Errorf("charexp: no %s module can run MAJ%d", mfr, sc.X)
	}
	if len(p.shards) == 0 {
		return 0, fmt.Errorf("charexp: %s MAJ%d: no subarrays sampled; check the sampling bounds", mfr, sc.X)
	}
	outcomes, err := p.run()
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, out := range outcomes {
		for _, o := range out {
			if rate := o.Result.Rate(); rate > best {
				best = rate
			}
		}
	}
	return best, nil
}

// Table is a rendered experiment result: the rows/series a figure reports.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Render returns the table in aligned plain text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row,
// for downstream plotting.
func (t Table) CSV() string {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(row)
	}
	return b.String()
}

// pct formats a rate as a percentage.
func pct(rate float64) string { return fmt.Sprintf("%.2f%%", rate*100) }

var summaryColumns = []string{"mean", "min", "q1", "median", "q3", "max"}

// sortedKeys returns map keys in sorted order for deterministic rendering.
func sortedKeys[K int | float64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
