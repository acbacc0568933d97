package workload

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/charexp"
	"repro/internal/fleet"
)

// Options mirrors the cmd/simra-work CLI surface and the serving layer's
// workload-request parameters. Resolving options to a FleetConfig here —
// rather than in each front end — is what makes a served workload
// response byte-identical to the CLI's output for the same parameters.
type Options struct {
	// Workloads selects what runs: "all" (or empty) for every registered
	// workload, else a comma-separated list of names.
	Workloads string
	// Modules is the population: "representative" (default), "full",
	// "samsung" or "all".
	Modules string
	// Workers bounds the engine parallelism (0 = GOMAXPROCS). It never
	// affects result bytes.
	Workers int
	// MaxX caps the majority width (0 = default).
	MaxX int
	// Columns is the simulated subarray slice width (0 = 512).
	Columns int
	// Seed overrides the experiment seed (0 = default).
	Seed uint64
}

// Resolve validates the options and builds the fleet-run configuration.
func (o Options) Resolve() (FleetConfig, error) {
	var cfg FleetConfig
	fleetCfg := fleet.DefaultConfig()
	fleetCfg.Columns = 512
	if o.Columns > 0 {
		fleetCfg.Columns = o.Columns
	}
	switch o.Modules {
	case "", "representative":
		cfg.Entries = fleet.Representative(fleetCfg)
	case "full":
		cfg.Entries = fleet.Modules(fleetCfg)
	case "samsung":
		cfg.Entries = fleet.SamsungModules(fleetCfg)
	case "all":
		cfg.Entries = append(fleet.Modules(fleetCfg), fleet.SamsungModules(fleetCfg)...)
	default:
		return FleetConfig{}, fmt.Errorf(
			"workload: unknown modules %q; valid: representative, full, samsung, all", o.Modules)
	}

	if o.Workloads != "all" && o.Workloads != "" {
		for _, name := range strings.Split(o.Workloads, ",") {
			w, err := Get(strings.TrimSpace(name))
			if err != nil {
				return FleetConfig{}, err
			}
			cfg.Workloads = append(cfg.Workloads, w)
		}
	}
	if o.MaxX > 0 {
		cfg.MaxX = o.MaxX
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Engine.Workers = o.Workers
	return cfg.withDefaults(), nil
}

// WriteReport renders fleet-run results to w in the given format: the
// report table, plus — text only — the summary line; or the columnar
// stream. This is the byte-exact output contract of cmd/simra-work and
// the serving layer's workload responses (asserted by the golden tests
// and the CI e2e job).
func WriteReport(w io.Writer, results []Result, format string) error {
	return charexp.Write(w, TypedReport(Columnar(results)), format)
}
