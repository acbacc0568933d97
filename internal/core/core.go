// Package core implements the paper's contribution: the
// simultaneous-many-row-activation PUD operations on COTS DRAM chips and
// the methodology that characterizes their robustness.
//
// The three operation families follow §3.2–§3.4 exactly:
//
//   - ManyRowActivation: APA with violated timings, then a WR that
//     overdrives the bitlines; success = activated cells store the WR data.
//   - MAJ (MAJX, X ∈ {3,5,7,9}): operands replicated ⌊N/X⌋ times across the
//     activated rows, leftovers neutralized with Frac (or solid values on
//     chips without Frac support); success = cells store the majority of
//     the X operands.
//   - MultiRowCopy: t1 = tRAS latches the source into the sense amps, the
//     violated-tRP second ACT opens the destinations; success = destination
//     cells store the source data.
//
// Success rate is the paper's metric: the percentage of cells that produce
// the correct result in *all* trials of an operation (§3.1).
package core

import (
	"fmt"
	"sync"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// SuccessResult counts the outcome of one characterized row group.
type SuccessResult struct {
	// Cells is the number of cells whose result was checked.
	Cells int
	// Stable is the number of cells correct in every trial.
	Stable int
	// Viable reports whether the operation's group resolved
	// deterministically in every trial (majority operations only; true
	// otherwise).
	Viable bool
}

// Rate returns the success rate in [0, 1].
func (r SuccessResult) Rate() float64 {
	if r.Cells == 0 {
		return 0
	}
	return float64(r.Stable) / float64(r.Cells)
}

// Tester drives PUD characterization on one module.
type Tester struct {
	mod     *dram.Module
	env     analog.Env
	trials  int
	seed    uint64
	workers int
	arenas  *ArenaPool

	// mu guards the module's lazy subarray allocation during parallel
	// sweeps and the sampling caches below; distinct subarrays are
	// otherwise independent.
	mu sync.Mutex
	// Sampling caches: group and subarray sampling are pure functions of
	// (module, coordinates, bounds, seed), and a figure sweep re-enumerates
	// the identical samples for every one of its cells. Cached slices are
	// handed out aliased and are read-only by contract.
	groupsCache  map[groupsCacheKey][]bender.Group
	samplesCache map[samplesCacheKey][]bender.SubarraySample
}

// groupsCacheKey identifies one deterministic SampleGroups call on this
// tester (the seed is the tester's own).
type groupsCacheKey struct{ bank, sa, n, count int }

// samplesCacheKey identifies one deterministic SweepSamples enumeration.
type samplesCacheKey struct{ perBank, banks int }

// Option configures a Tester.
type Option func(*Tester)

// WithEnv sets the operating conditions (default: 50 °C, nominal VPP).
func WithEnv(env analog.Env) Option { return func(t *Tester) { t.env = env } }

// WithTrials sets the per-group trial count (default 8). The paper runs
// 10000; the success-rate metric converges quickly because most
// instability is static in origin (see DESIGN.md §5 "Scaling").
func WithTrials(n int) Option { return func(t *Tester) { t.trials = n } }

// WithSeed sets the experiment seed feeding data patterns.
func WithSeed(seed uint64) Option { return func(t *Tester) { t.seed = seed } }

// WithWorkers bounds RunSweep's shard parallelism (0 = GOMAXPROCS,
// 1 = sequential). Results are identical for every setting.
func WithWorkers(n int) Option { return func(t *Tester) { t.workers = n } }

// WithArenaPool sets the scratch-arena pool the trial-plane kernels draw
// from (default: a process-shared pool). Long-running harnesses pass
// their own so concurrent runs with different widths don't contend.
func WithArenaPool(p *ArenaPool) Option {
	return func(t *Tester) {
		if p != nil {
			t.arenas = p
		}
	}
}

// NewTester builds a tester for the module.
func NewTester(mod *dram.Module, opts ...Option) (*Tester, error) {
	if mod == nil {
		return nil, fmt.Errorf("core: nil module")
	}
	t := &Tester{mod: mod, env: analog.NominalEnv(), trials: 8, seed: 1, arenas: sharedArenas}
	for _, o := range opts {
		o(t)
	}
	if t.trials <= 0 {
		return nil, fmt.Errorf("core: trials must be positive, got %d", t.trials)
	}
	if err := t.env.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Module returns the module under test.
func (t *Tester) Module() *dram.Module { return t.mod }

// Env returns the tester's operating conditions.
func (t *Tester) Env() analog.Env { return t.env }

// Trials returns the per-group trial count.
func (t *Tester) Trials() int { return t.trials }

// ManyRowActivation characterizes simultaneous many-row activation on one
// row group (§3.2): initialize the group's rows with the pattern, issue
// APA(RF, RS) with the given timings, issue a WR with the inverted
// pattern, then read every row of the group back with nominal timings. A
// cell succeeds in a trial iff it stores the WR data.
func (t *Tester) ManyRowActivation(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {
	return t.manyRowActivationPlanes(sa, g, at, p)
}

// MAJ characterizes an X-input majority with the group's N-row activation
// (§3.3). Operands take their data from the pattern (operand j is pattern
// row j); each operand is replicated ⌊N/X⌋ times; the N%X leftover rows
// are neutralized. A cell succeeds in a trial iff the group's rows end up
// storing the bitwise majority of the X operands.
func (t *Tester) MAJ(sa *dram.Subarray, g bender.Group, x int,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {
	return t.majPlanes(sa, g, x, at, p)
}

// MultiRowCopy characterizes copying the group's RF row into the group's
// other rows (§3.4): destinations are initialized with the pattern, the
// source with a different pattern, then APA with a restore-compliant t1
// and violated t2. A destination cell succeeds in a trial iff it stores
// the source data.
func (t *Tester) MultiRowCopy(sa *dram.Subarray, g bender.Group,
	at timing.APATimings, p dram.Pattern) (SuccessResult, error) {
	return t.multiRowCopyPlanes(sa, g, at, p)
}

// RowClone copies row src to row dst with the best copy timings,
// returning the fraction of correctly copied cells. src and dst must
// belong to the same subarray and form a 2-row decoder group.
func (t *Tester) RowClone(sa *dram.Subarray, src, dst int) (float64, error) {
	rows, err := t.mod.Decoder().ActivatedRows(src, dst)
	if err != nil {
		return 0, err
	}
	if len(rows) != 2 {
		return 0, fmt.Errorf("core: rows %d and %d activate %d rows; RowClone needs exactly 2",
			src, dst, len(rows))
	}
	want, err := sa.ReadRowVec(src)
	if err != nil {
		return 0, err
	}
	if _, err := sa.APA(src, dst, dram.APAOptions{
		Timings: timing.BestCopy(),
		Env:     t.env,
	}); err != nil {
		return 0, err
	}
	sa.Precharge()
	got, err := sa.ReadRowVec(dst)
	if err != nil {
		return 0, err
	}
	diff := bitvec.New(got.Len())
	diff.Xor(got, want)
	match := got.Len() - diff.PopCount()
	return float64(match) / float64(got.Len()), nil
}

// groupSeed derives the data seed for one row group: the paper
// re-generates the tested data for every group instance, so operand values
// (and the fixed-pattern byte choices) vary group to group.
func (t *Tester) groupSeed(sa *dram.Subarray, g bender.Group) uint64 {
	return xrand.Hash(t.seed, uint64(sa.Bank()), uint64(sa.Index()),
		uint64(g.RF), uint64(g.RS))
}
