package campaign

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/charexp"
	"repro/internal/workload"
)

// Options mirrors the cmd/simra-campaign CLI surface and the serving
// layer's campaign-request parameters. Resolving options to a Config here
// — rather than in each front end — is what makes a served campaign
// response byte-identical to the CLI's output for the same parameters.
type Options struct {
	// Workload is the target workload's name (default "bitmap-scan").
	Workload string
	// FleetSize is the number of modules per candidate mix (0 =
	// DefaultFleetSize; at most MaxFleetSize).
	FleetSize int
	// Top bounds the ranked candidates in the report (0 = DefaultTop).
	Top int
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

// workloadList renders the registered workload names for error messages
// (the "; valid: ..." convention the 422 envelope parses).
func workloadList() string {
	var names []string
	for _, w := range workload.All() {
		names = append(names, w.Name())
	}
	return strings.Join(names, ", ")
}

// fleetSizeList renders the accepted fleet sizes for error messages.
func fleetSizeList() string {
	var sizes []string
	for n := 1; n <= MaxFleetSize; n++ {
		sizes = append(sizes, strconv.Itoa(n))
	}
	return strings.Join(sizes, ", ")
}

// Resolve validates the options and builds the campaign configuration.
func (o Options) Resolve() (Config, error) {
	cfg := Config{
		FleetSize: o.FleetSize,
		Top:       o.Top,
		MaxX:      o.MaxX,
		Columns:   o.Columns,
		Seed:      o.Seed,
	}
	name := o.Workload
	if name == "" {
		name = "bitmap-scan"
	}
	w, err := workload.Get(name)
	if err != nil {
		return Config{}, fmt.Errorf("campaign: unknown workload %q; valid: %s", name, workloadList())
	}
	cfg.Workload = w
	if o.FleetSize < 0 || o.FleetSize > MaxFleetSize {
		return Config{}, fmt.Errorf("campaign: fleet size %d out of range; valid: %s",
			o.FleetSize, fleetSizeList())
	}
	if o.Top < 0 {
		return Config{}, fmt.Errorf("campaign: top %d must be >= 0", o.Top)
	}
	cfg.Engine.Workers = o.Workers
	return cfg, nil
}

// WriteReport renders a campaign result to w in the given format: the
// ranked table, plus — text only — the search summary line; or the
// columnar stream. This is the byte-exact output contract of
// cmd/simra-campaign and the serving layer's campaign responses.
func WriteReport(w io.Writer, r *Result, format string) error {
	return charexp.Write(w, TypedReport(r.Columnar()), format)
}
