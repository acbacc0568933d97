// Package scenario is the operating-envelope subsystem of the harness: a
// declarative scenario-matrix runner that crosses environment axes
// (temperature, VPP, timing margin, aging, data pattern, activation width
// and majority width) against the module fleet, plus an adaptive envelope
// search that bisects a chosen axis to locate, per module, the reliability
// cliff where all-trials success crosses a target threshold.
//
// Where internal/charexp replays the paper's fixed figure grids, scenario
// explores arbitrary operating envelopes: every (point, module, bank,
// subarray) cell is an independent engine shard with a content-hashed memo
// key (`scenario/point-shard/v1`), so results obey the repository's
// determinism contracts (bit-identical for every worker count, fleet
// composition and cache mode — DESIGN.md §2/§6/§9/§10) and repeated or
// overlapping scans are served from cache instead of re-simulating.
package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/timing"
)

// Mitigation selects the redundancy co-simulation layered on a scenario
// point (see internal/core's mitigation kernel): the zero value is
// "none" — the bare operation, exactly the pre-mitigation behaviour.
type Mitigation struct {
	// Kind is "" (none), "tmr" (in-DRAM majority voting over replicated
	// copies, internal/tmr) or "ecc" (parity-based reconstruction over
	// bit-serial lanes, internal/bitserial).
	Kind string
	// Level is the redundancy degree: the vote width for tmr (odd, 3–9)
	// or the data registers per parity row for ecc (2–4).
	Level int
}

// String renders the canonical mitigation token ("none", "tmr:3", "ecc:2").
func (m Mitigation) String() string {
	if m.Kind == "" {
		return "none"
	}
	return fmt.Sprintf("%s:%d", m.Kind, m.Level)
}

// MitigationNames lists the accepted mitigation tokens in canonical order
// (the valid-options list of the serving layer's 422 envelope).
func MitigationNames() []string {
	return []string{"none", "tmr:3", "tmr:5", "tmr:7", "tmr:9", "ecc:2", "ecc:3", "ecc:4"}
}

func mitigationErr(tok string) error {
	return fmt.Errorf("scenario: unknown mitigation %q; valid: %s",
		tok, strings.Join(MitigationNames(), ", "))
}

// ParseMitigation parses a mitigation token: "none", "tmr"/"tmr:X" (odd
// vote width 3–9, default 3) or "ecc"/"ecc:L" (data lanes 2–4, default 2).
// Unknown names and out-of-range redundancy levels report the canonical
// valid-options list.
func ParseMitigation(s string) (Mitigation, error) {
	tok := strings.ToLower(strings.TrimSpace(s))
	kind, lvl, hasLvl := strings.Cut(tok, ":")
	level := 0
	if hasLvl {
		v, err := strconv.Atoi(strings.TrimSpace(lvl))
		if err != nil {
			return Mitigation{}, mitigationErr(s)
		}
		level = v
	}
	switch kind {
	case "none":
		if hasLvl {
			return Mitigation{}, mitigationErr(s)
		}
		return Mitigation{}, nil
	case "tmr":
		if !hasLvl {
			level = 3
		}
		if level < 3 || level > 9 || level%2 == 0 {
			return Mitigation{}, mitigationErr(s)
		}
		return Mitigation{Kind: "tmr", Level: level}, nil
	case "ecc":
		if !hasLvl {
			level = 2
		}
		if level < 2 || level > 4 {
			return Mitigation{}, mitigationErr(s)
		}
		return Mitigation{Kind: "ecc", Level: level}, nil
	}
	return Mitigation{}, mitigationErr(s)
}

// requiredMAJ returns the majority width the mitigation's in-DRAM
// computation needs (0 = no mitigation).
func (m Mitigation) requiredMAJ() int {
	switch m.Kind {
	case "tmr":
		return m.Level
	case "ecc":
		return 3 // XOR chains are built from MAJ3
	}
	return 0
}

// Grid declares the swept axes of a scenario matrix. A nil axis collapses
// to the operation's nominal value, so the zero Grid is the single
// best-operating-point scenario.
type Grid struct {
	// Temp lists DRAM temperatures (°C; default {50}).
	Temp []float64
	// VPP lists wordline voltages (V; default {2.5}).
	VPP []float64
	// T1 and T2 list APA timing delays (ns; default: the operation's best
	// timings — BestSiMRA, BestMAJ or BestCopy).
	T1 []float64
	T2 []float64
	// Aging lists operational-aging offsets (years; default {0}).
	Aging []float64
	// Disturb lists disturbance-interaction stress levels (unitless;
	// default {0}, the quiet-array zero point).
	Disturb []float64
	// Retention lists retention stress levels (refresh-interval
	// multiples beyond spec; default {0}, in-spec refresh).
	Retention []float64
	// Rows lists simultaneously-activated-row counts (powers of two;
	// default {32}).
	Rows []int
	// MAJX lists majority widths (odd, ≥3; MAJ operations only;
	// default {3}).
	MAJX []int
	// Patterns lists data patterns (default {PatternRandom}).
	Patterns []dram.Pattern
	// Mitigations lists redundancy mitigations co-simulated at every
	// point (default {none}).
	Mitigations []Mitigation
}

// withDefaults collapses unset axes to the operation's nominal point.
func (g Grid) withDefaults(op core.OpKind) Grid {
	best := timing.BestSiMRA()
	switch op {
	case core.OpMAJ:
		best = timing.BestMAJ()
	case core.OpMultiRowCopy:
		best = timing.BestCopy()
	}
	if len(g.Temp) == 0 {
		g.Temp = []float64{50}
	}
	if len(g.VPP) == 0 {
		g.VPP = []float64{2.5}
	}
	if len(g.T1) == 0 {
		g.T1 = []float64{best.T1}
	}
	if len(g.T2) == 0 {
		g.T2 = []float64{best.T2}
	}
	if len(g.Aging) == 0 {
		g.Aging = []float64{0}
	}
	if len(g.Disturb) == 0 {
		g.Disturb = []float64{0}
	}
	if len(g.Retention) == 0 {
		g.Retention = []float64{0}
	}
	if len(g.Mitigations) == 0 {
		g.Mitigations = []Mitigation{{}}
	}
	if len(g.Rows) == 0 {
		g.Rows = []int{32}
	}
	if len(g.MAJX) == 0 || op != core.OpMAJ {
		g.MAJX = []int{3}
	}
	if len(g.Patterns) == 0 {
		g.Patterns = []dram.Pattern{dram.PatternRandom}
	}
	return g
}

// Point is one fully resolved scenario point: an operating condition the
// fleet is characterized under.
type Point struct {
	N         int // simultaneously activated rows
	X         int // majority width (MAJ operations only)
	Pattern   dram.Pattern
	T1, T2    float64 // APA timings, ns
	TempC     float64 // °C
	VPP       float64 // V
	Aging     float64 // years
	Disturb   float64 // disturbance-interaction stress
	Retention float64 // retention stress, refresh-interval multiples
	// Mit is the redundancy mitigation co-simulated at the point (zero =
	// none: the bare operation).
	Mit Mitigation
}

// Env returns the point's operating environment.
func (p Point) Env() analog.Env {
	return analog.Env{TempC: p.TempC, VPP: p.VPP, Aging: p.Aging,
		Disturb: p.Disturb, Retention: p.Retention}
}

// Timings returns the point's APA timing pair.
func (p Point) Timings() timing.APATimings {
	return timing.APATimings{T1: p.T1, T2: p.T2}
}

// points enumerates the grid's cross product in canonical nested order
// (rows → majority width → pattern → t1 → t2 → temperature → VPP →
// aging → disturb → retention → mitigation): the deterministic scan and
// table order. The three trailing axes default to single neutral values,
// so pre-mitigation grids enumerate the identical point sequence.
func (g Grid) points(op core.OpKind) []Point {
	var out []Point
	for _, n := range g.Rows {
		for _, x := range g.MAJX {
			for _, pat := range g.Patterns {
				for _, t1 := range g.T1 {
					for _, t2 := range g.T2 {
						for _, temp := range g.Temp {
							for _, vpp := range g.VPP {
								for _, aging := range g.Aging {
									for _, dist := range g.Disturb {
										for _, ret := range g.Retention {
											for _, mit := range g.Mitigations {
												out = append(out, Point{
													N: n, X: x, Pattern: pat,
													T1: t1, T2: t2,
													TempC: temp, VPP: vpp, Aging: aging,
													Disturb: dist, Retention: ret, Mit: mit,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Envelope switches a scenario run from grid scan to adaptive envelope
// search: instead of sweeping Axis over fixed values, the runner bisects
// it per (module, base point) to locate the boundary where the module's
// mean all-trials success crosses Target.
type Envelope struct {
	// Axis is the bisected axis: "t1", "t2", "temp", "vpp", "aging",
	// "disturb" or "retention".
	Axis string
	// Lo and Hi bound the search (0/0 = the axis default, see AxisBounds).
	Lo, Hi float64
	// Target is the success-rate threshold in (0, 1] (0 = 0.9).
	Target float64
	// Steps is the number of bisection iterations after the two endpoint
	// probes (0 = 6, resolving the boundary to (Hi-Lo)/2⁶).
	Steps int
}

// EnvelopeAxes lists the bisectable axes in canonical order.
func EnvelopeAxes() []string {
	return []string{"t1", "t2", "temp", "vpp", "aging", "disturb", "retention"}
}

// AxisBounds returns the default search range of a bisectable axis,
// spanning the envelope the simulated tester supports.
func AxisBounds(axis string) (lo, hi float64, err error) {
	switch axis {
	case "t1":
		return 1.5, 36, nil
	case "t2":
		// Capped at 12 ns: one tester tick below the nominal tRP of
		// 13.5 ns, so every probe still violates tRP and can trigger
		// multi-row activation at all.
		return 1.5, 12, nil
	case "temp":
		return 50, 90, nil
	case "vpp":
		return 2.1, 2.5, nil
	case "aging":
		return 0, 20, nil
	case "disturb":
		return 0, 32, nil
	case "retention":
		return 0, 32, nil
	default:
		return 0, 0, fmt.Errorf("scenario: unknown envelope axis %q; valid: %s",
			axis, strings.Join(EnvelopeAxes(), ", "))
	}
}

// withDefaults resolves zero-value envelope fields.
func (e Envelope) withDefaults() (Envelope, error) {
	lo, hi, err := AxisBounds(e.Axis)
	if err != nil {
		return e, err
	}
	if e.Lo == 0 && e.Hi == 0 {
		e.Lo, e.Hi = lo, hi
	}
	if e.Lo >= e.Hi {
		return e, fmt.Errorf("scenario: envelope bounds [%g, %g] are empty", e.Lo, e.Hi)
	}
	if e.Target == 0 {
		e.Target = 0.9
	}
	if e.Target <= 0 || e.Target > 1 {
		return e, fmt.Errorf("scenario: envelope target %g outside (0, 1]", e.Target)
	}
	if e.Steps == 0 {
		e.Steps = 6
	}
	if e.Steps < 1 || e.Steps > 32 {
		return e, fmt.Errorf("scenario: envelope steps %d outside [1, 32]", e.Steps)
	}
	return e, nil
}

// withAxis returns the point with the bisected axis set to v.
func (p Point) withAxis(axis string, v float64) Point {
	switch axis {
	case "t1":
		p.T1 = v
	case "t2":
		p.T2 = v
	case "temp":
		p.TempC = v
	case "vpp":
		p.VPP = v
	case "aging":
		p.Aging = v
	case "disturb":
		p.Disturb = v
	case "retention":
		p.Retention = v
	}
	return p
}

// Config scopes a scenario run. The zero value of every field takes the
// documented default.
type Config struct {
	// Op selects the characterized operation family (default:
	// many-row activation).
	Op core.OpKind
	// Grid declares the swept axes; unset axes collapse to the operation's
	// nominal point.
	Grid Grid
	// Envelope, when non-nil, switches from grid scan to adaptive envelope
	// search on Envelope.Axis (whose Grid values, if any, are ignored: the
	// base points cross the remaining axes).
	Envelope *Envelope
	// Fleet is the module population (default: fleet.Representative on
	// 512-column slices).
	Fleet []fleet.Entry
	// Params is the electrical model (default: analog.DefaultParams).
	Params analog.Params
	// Trials per row group (default 4).
	Trials int
	// GroupsPerSubarray, SubarraysPerBank and Banks bound the sampling per
	// module point (defaults 4, 1, 2).
	GroupsPerSubarray int
	SubarraysPerBank  int
	Banks             int
	// Seed feeds group sampling and data generation (default 0xd5a, the
	// charexp default — shared so overlapping cells hit the same physics).
	Seed uint64
	// Engine bounds the shard parallelism (0 = GOMAXPROCS); results are
	// bit-identical for every worker count.
	Engine engine.Config
	// Memo optionally memoizes per-(point, module, bank, subarray) shards
	// across runs under `scenario/point-shard/v1` keys
	// (internal/cache.NewTyped over a shared cache satisfies it). nil
	// disables memoization.
	Memo engine.Memo[[]core.GroupOutcome]
	// Dispatch, when non-nil, routes point-shard execution through a
	// worker fleet (internal/cluster's Coordinator satisfies it) instead
	// of running shard bodies in-process. Shards travel as serialized
	// core.ShardSpec values keyed by the same `scenario/point-shard/v1`
	// content hashes Memo uses, so a dispatched run — grid scan or
	// envelope search — is bit-identical to a local one. nil executes
	// every shard in-process.
	Dispatch engine.Dispatcher
	// Stats, when non-nil, accumulates the run's engine progress counters
	// in an externally observable place — the job tier polls it for live
	// per-shard progress while the run executes. nil keeps a run-private
	// accumulator. Never affects result bytes.
	Stats *engine.Stats
	// Pool, when non-nil, supplies the private module instances shard work
	// runs on (the job executor's warmpool). Pooled instances are reset to
	// the power-off state before reuse, so results are bit-identical to
	// freshly built modules (verified by the job-vs-blocking invariance
	// suite).
	Pool dram.ModulePool

	// pb is the HashModule block of Params, resolved once per run by Run
	// for every shard key and module of the run.
	pb dram.ParamsBlock
}

// DefaultConfig returns the standard reduced-scale scenario configuration.
func DefaultConfig() Config { return Config{}.withDefaults() }

// withDefaults resolves zero-value fields, building the default fleet only
// when none is given.
func (cfg Config) withDefaults() Config {
	if len(cfg.Fleet) == 0 {
		fc := fleet.DefaultConfig()
		fc.Columns = 512
		cfg.Fleet = fleet.Representative(fc)
	}
	if cfg.Params == (analog.Params{}) {
		cfg.Params = analog.DefaultParams()
	}
	if cfg.Trials == 0 {
		cfg.Trials = 4
	}
	if cfg.GroupsPerSubarray == 0 {
		cfg.GroupsPerSubarray = 4
	}
	if cfg.SubarraysPerBank == 0 {
		cfg.SubarraysPerBank = 1
	}
	if cfg.Banks == 0 {
		cfg.Banks = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0xd5a
	}
	return cfg
}

// validate rejects malformed configurations before any simulation.
func (cfg Config) validate(points []Point) error {
	if cfg.Trials <= 0 {
		return fmt.Errorf("scenario: trials must be positive")
	}
	for _, p := range points {
		if p.N < 2 || p.N&(p.N-1) != 0 {
			return fmt.Errorf("scenario: %d rows not activatable (powers of two ≥ 2 only)", p.N)
		}
		if cfg.Op == core.OpMAJ {
			if p.X < 3 || p.X%2 == 0 {
				return fmt.Errorf("scenario: majority width %d must be odd and >= 3", p.X)
			}
			if p.N < p.X {
				return fmt.Errorf("scenario: MAJ%d needs at least %d rows, point has %d", p.X, p.X, p.N)
			}
		}
		if err := p.Env().Validate(); err != nil {
			return err
		}
		// Round-trip through the parser: one source of truth for kind and
		// redundancy-level bounds.
		if _, err := ParseMitigation(p.Mit.String()); err != nil {
			return err
		}
	}
	return nil
}

// applies reports whether a module profile can run the operation at the
// point (guarded chips and over-wide MAJ are skipped, as in charexp).
func applies(profile dram.Profile, op core.OpKind, p Point) bool {
	if profile.APAGuarded {
		return false
	}
	if op == core.OpMAJ && p.X > profile.MaxMAJ {
		return false
	}
	if len(profile.Decoder.FieldBits) > 0 && p.N > 1<<len(profile.Decoder.FieldBits) {
		return false
	}
	if w := p.Mit.requiredMAJ(); w > 0 && w > profile.MaxMAJ {
		return false
	}
	return true
}

// sweepConfig maps a point onto the core sweep cell it characterizes.
func (cfg Config) sweepConfig(p Point) core.SweepConfig {
	return core.SweepConfig{
		Op:                cfg.Op,
		X:                 p.X,
		N:                 p.N,
		Timings:           p.Timings(),
		Pattern:           p.Pattern,
		SubarraysPerBank:  cfg.SubarraysPerBank,
		GroupsPerSubarray: cfg.GroupsPerSubarray,
		Banks:             cfg.Banks,
		Mitigation:        p.Mit.Kind,
		MitLevel:          p.Mit.Level,
	}
}
