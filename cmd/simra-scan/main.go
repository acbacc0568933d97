// Command simra-scan explores operating envelopes of the PUD operations:
// declarative scenario-matrix scans over temperature, VPP, APA timings,
// aging, data pattern and activation/majority width, and an adaptive
// envelope search that reports, per module, the boundary where all-trials
// success crosses a target threshold (the paper's reliability "cliff" as
// a machine-readable envelope).
//
// Usage:
//
//	simra-scan                                   # timing grid scan (t1 × t2), activation
//	simra-scan -grid thermal -op maj -x 3        # temperature × t2 grid, MAJ3
//	simra-scan -axes "t2=1.5,3;temp=50,90"       # custom axes
//	simra-scan -envelope t2 -target 0.9          # per-module min viable t2
//	simra-scan -envelope temp -grid nominal      # max viable temperature
//
// Output is deterministic for a given configuration and bit-identical for
// every -workers value and cache mode (verified by the golden-file test
// and the CI e2e job); engine statistics go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	simra "repro"
	"repro/internal/charexp"
	"repro/internal/cli"
)

// flags binds simra-scan's flag surface, the scenario family's Options,
// to fs and returns the options that parsing fills.
func flags(fs *flag.FlagSet) *simra.ScenarioOptions {
	opts := &simra.ScenarioOptions{Op: "activation", Grid: "timing", Modules: "representative", Format: charexp.FormatText}
	cli.Bind(fs, opts)
	fs.Lookup("envelope").Usage += ": " + strings.Join(simra.ScenarioEnvelopeAxes(), ", ")
	return opts
}

func main() {
	cli.Main("simra-scan", flags, func(w io.Writer, opts *simra.ScenarioOptions) (fmt.Stringer, error) {
		return run(w, *opts)
	})
}

// run executes the scenario and writes the report through the shared
// resolution/rendering path (internal/scenario.Options), so the bytes on
// w are the same contract simra-serve serves on /v1/scenario. All output
// on w is deterministic; the driver puts statistics and timing on stderr.
func run(w io.Writer, opts simra.ScenarioOptions) (simra.EngineStats, error) {
	if err := charexp.CheckFormat(opts.Format); err != nil {
		return simra.EngineStats{}, err
	}
	cfg, err := simra.ResolveScenario(opts)
	if err != nil {
		return simra.EngineStats{}, err
	}
	res, err := simra.RunScenarios(context.Background(), cfg)
	if err != nil {
		return simra.EngineStats{}, err
	}
	if err := simra.WriteScenarioReport(w, res, opts.Format); err != nil {
		return simra.EngineStats{}, err
	}
	return res.Stats, nil
}
