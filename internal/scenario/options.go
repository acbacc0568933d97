package scenario

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/charexp"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/timing"
)

// Options mirrors the cmd/simra-scan CLI surface and the serving layer's
// scenario-request parameters. Resolving options to a Config here — and
// rendering through WriteReport — is what makes a served /v1/scenario
// response byte-identical to the CLI's stdout for the same parameters.
type Options struct {
	// Op is the operation family: "activation" (default), "maj" or "copy".
	Op string
	// Grid names a preset axis matrix: "nominal", "timing" (default),
	// "thermal", "voltage", "pattern", "aging", "mitigation" or "full".
	Grid string
	// Axes overrides preset axes: a ';'-separated list of
	// "axis=v1,v2,..." entries, e.g. "t2=1.5,3;temp=50,90;pattern=random,all0"
	// or "mitigation=none,tmr:3,ecc:2". Valid axes: t1, t2, temp, vpp,
	// aging, disturb, retention, n, x, pattern, mitigation.
	Axes string
	// Envelope switches to adaptive envelope search on the named axis
	// ("t1", "t2", "temp", "vpp", "aging", "disturb" or "retention";
	// "" = grid scan).
	Envelope string
	// Target is the envelope success threshold in (0, 1] (0 = 0.9).
	Target float64
	// Modules selects the population: "representative" (default) or "full".
	Modules string
	// X and N fix the majority width and activation row count when the
	// corresponding axis is not swept (0 = defaults 3 and 32).
	X, N int
	// Trials, Groups, Banks, Columns and Seed override the reduced-scale
	// defaults (0 = default).
	Trials  int
	Groups  int
	Banks   int
	Columns int
	Seed    uint64
	// Workers bounds the engine parallelism (0 = GOMAXPROCS). It never
	// affects result bytes.
	Workers int
}

// patternsByName maps CLI/API pattern tokens onto dram patterns.
var patternsByName = map[string]dram.Pattern{
	"random": dram.PatternRandom,
	"00ff":   dram.Pattern00FF,
	"aa55":   dram.PatternAA55,
	"cc33":   dram.PatternCC33,
	"6699":   dram.Pattern6699,
	"all0":   dram.PatternAll0,
	"all1":   dram.PatternAll1,
	"split":  dram.PatternSplit,
}

// patternNames lists the accepted pattern tokens, sorted for error
// messages.
func patternNames() string {
	names := make([]string, 0, len(patternsByName))
	for n := range patternsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// GridNames lists the preset grid names in canonical order.
func GridNames() []string {
	return []string{"nominal", "timing", "thermal", "voltage", "pattern", "aging", "mitigation", "full"}
}

// presetGrid resolves a named axis matrix.
func presetGrid(name string) (Grid, error) {
	switch name {
	case "", "nominal":
		return Grid{}, nil
	case "timing":
		return Grid{T1: timing.SweepT1SiMRA, T2: timing.SweepT2}, nil
	case "thermal":
		return Grid{Temp: timing.SweepTemperature, T2: []float64{1.5, 3.0}}, nil
	case "voltage":
		return Grid{VPP: timing.SweepVPP, T2: []float64{1.5, 3.0}}, nil
	case "pattern":
		return Grid{Patterns: dram.MAJPatterns}, nil
	case "aging":
		return Grid{Aging: []float64{0, 2, 4, 8, 16}}, nil
	case "mitigation":
		// Redundancy sweep across a timing cliff: bare operation vs TMR
		// voting vs parity reconstruction at a tight and a relaxed t2.
		return Grid{
			T2:          []float64{1.5, 3.0},
			Mitigations: []Mitigation{{}, {Kind: "tmr", Level: 3}, {Kind: "ecc", Level: 2}},
		}, nil
	case "full":
		return Grid{
			T1:   timing.SweepT1SiMRA,
			T2:   timing.SweepT2,
			Temp: []float64{50, 70, 90},
			VPP:  []float64{2.5, 2.3, 2.1},
		}, nil
	default:
		return Grid{}, fmt.Errorf("scenario: unknown grid %q; valid: %s",
			name, strings.Join(GridNames(), ", "))
	}
}

// applyAxes parses an axis-override specification onto the grid.
func applyAxes(g Grid, spec string) (Grid, error) {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		axis, vals, ok := strings.Cut(entry, "=")
		if !ok {
			return g, fmt.Errorf("scenario: malformed axis entry %q; want axis=v1,v2,...", entry)
		}
		axis = strings.TrimSpace(axis)
		parts := strings.Split(vals, ",")
		floats := func() ([]float64, error) {
			out := make([]float64, 0, len(parts))
			for _, s := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					return nil, fmt.Errorf("scenario: axis %s: bad value %q", axis, s)
				}
				out = append(out, v)
			}
			return out, nil
		}
		ints := func() ([]int, error) {
			out := make([]int, 0, len(parts))
			for _, s := range parts {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return nil, fmt.Errorf("scenario: axis %s: bad value %q", axis, s)
				}
				out = append(out, v)
			}
			return out, nil
		}
		var err error
		switch axis {
		case "t1":
			g.T1, err = floats()
		case "t2":
			g.T2, err = floats()
		case "temp":
			g.Temp, err = floats()
		case "vpp":
			g.VPP, err = floats()
		case "aging":
			g.Aging, err = floats()
		case "disturb":
			g.Disturb, err = floats()
		case "retention":
			g.Retention, err = floats()
		case "n":
			g.Rows, err = ints()
		case "x":
			g.MAJX, err = ints()
		case "pattern":
			// Fresh slice: the preset may alias a package-level pattern
			// list (dram.MAJPatterns), which an in-place reset would
			// corrupt for every later caller.
			g.Patterns = nil
			for _, s := range parts {
				p, ok := patternsByName[strings.ToLower(strings.TrimSpace(s))]
				if !ok {
					return g, fmt.Errorf("scenario: unknown pattern %q; valid: %s",
						strings.TrimSpace(s), patternNames())
				}
				g.Patterns = append(g.Patterns, p)
			}
		case "mitigation":
			g.Mitigations = nil
			for _, s := range parts {
				m, err := ParseMitigation(s)
				if err != nil {
					return g, err
				}
				g.Mitigations = append(g.Mitigations, m)
			}
		default:
			return g, fmt.Errorf("scenario: unknown axis %q; valid: t1, t2, temp, vpp, aging, disturb, retention, n, x, pattern, mitigation", axis)
		}
		if err != nil {
			return g, err
		}
	}
	return g, nil
}

// Resolve validates the options and builds the run configuration.
func (o Options) Resolve() (Config, error) {
	var cfg Config

	switch o.Op {
	case "", "activation":
		cfg.Op = core.OpManyRowActivation
	case "maj":
		cfg.Op = core.OpMAJ
	case "copy":
		cfg.Op = core.OpMultiRowCopy
	default:
		return Config{}, fmt.Errorf("scenario: unknown op %q; valid: activation, maj, copy", o.Op)
	}

	fleetCfg := fleet.DefaultConfig()
	fleetCfg.Columns = 512
	if o.Columns > 0 {
		fleetCfg.Columns = o.Columns
	}
	switch o.Modules {
	case "", "representative":
		cfg.Fleet = fleet.Representative(fleetCfg)
	case "full":
		cfg.Fleet = fleet.Modules(fleetCfg)
	default:
		return Config{}, fmt.Errorf("scenario: unknown modules %q; valid: representative, full", o.Modules)
	}
	cfg = cfg.withDefaults()

	grid, err := presetGrid(o.Grid)
	if err != nil {
		return Config{}, err
	}
	if o.Axes != "" {
		if grid, err = applyAxes(grid, o.Axes); err != nil {
			return Config{}, err
		}
	}
	if o.N > 0 && len(grid.Rows) == 0 {
		grid.Rows = []int{o.N}
	}
	if o.X > 0 && len(grid.MAJX) == 0 {
		grid.MAJX = []int{o.X}
	}
	cfg.Grid = grid

	if o.Envelope != "" {
		if _, _, err := AxisBounds(o.Envelope); err != nil {
			return Config{}, err
		}
		cfg.Envelope = &Envelope{Axis: o.Envelope, Target: o.Target}
	} else if o.Target != 0 {
		return Config{}, fmt.Errorf("scenario: -target only applies to envelope search")
	}

	if o.Trials > 0 {
		cfg.Trials = o.Trials
	}
	if o.Groups > 0 {
		cfg.GroupsPerSubarray = o.Groups
	}
	if o.Banks > 0 {
		cfg.Banks = o.Banks
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Engine.Workers = o.Workers

	// Fail fast on malformed grids (the same check Run performs).
	points := cfg.Grid.withDefaults(cfg.Op).points(cfg.Op)
	if cfg.Envelope != nil {
		env, err := cfg.Envelope.withDefaults()
		if err != nil {
			return Config{}, err
		}
		probes := make([]Point, 0, 2*len(points))
		for _, p := range points {
			probes = append(probes,
				p.withAxis(env.Axis, env.Lo), p.withAxis(env.Axis, env.Hi))
		}
		points = probes
	}
	if err := cfg.validate(points); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// axisExtras reports which optional axis columns (disturb, retention,
// mitigation) a result renders: only axes swept away from their neutral
// defaults appear, so pre-mitigation reports keep their exact column set
// and bytes.
type axisExtras struct{ disturb, retention, mit bool }

// extras scans the result for non-neutral optional axes. In envelope mode
// the bisected axis always renders (its "*" sentinel needs a column) even
// though the stored base points keep the neutral value.
func (r *Result) extras() axisExtras {
	var ex axisExtras
	mark := func(p Point) {
		if p.Disturb != 0 {
			ex.disturb = true
		}
		if p.Retention != 0 {
			ex.retention = true
		}
		if p.Mit.Kind != "" {
			ex.mit = true
		}
	}
	for _, pr := range r.Points {
		mark(pr.Point)
	}
	for _, c := range r.Cells {
		mark(c.Base)
	}
	switch r.Axis {
	case "disturb":
		ex.disturb = true
	case "retention":
		ex.retention = true
	}
	return ex
}

// WriteReport renders a scenario result to w in the given format: the
// report table, plus — text only — the summary line; or the columnar
// stream. This is the byte-exact output contract shared by cmd/simra-scan
// and the serving layer (engine statistics are deliberately excluded —
// they vary with cache state, and served bytes must equal CLI stdout for
// every cache mode and worker count).
func WriteReport(w io.Writer, r *Result, format string) error {
	return charexp.Write(w, TypedReport(r.Columnar()), format)
}
