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
	"os"
	"strings"
	"time"

	simra "repro"
	"repro/internal/charexp"
)

// options carries the parsed flags.
type options struct {
	op       string
	grid     string
	axes     string
	envelope string
	target   float64
	modules  string
	x, n     int
	trials   int
	groups   int
	banks    int
	cols     int
	seed     uint64
	workers  int
	format   string
}

func main() {
	var opts options
	flag.StringVar(&opts.op, "op", "activation", "operation family: activation, maj, or copy")
	flag.StringVar(&opts.grid, "grid", "timing", "preset axis grid: nominal, timing, thermal, voltage, pattern, aging, or full")
	flag.StringVar(&opts.axes, "axes", "", `axis overrides, e.g. "t2=1.5,3;temp=50,90;pattern=random,all0"`)
	flag.StringVar(&opts.envelope, "envelope", "", "adaptive envelope search on this axis: "+strings.Join(simra.ScenarioEnvelopeAxes(), ", "))
	flag.Float64Var(&opts.target, "target", 0, "envelope success threshold in (0,1] (0 = 0.9; envelope mode only)")
	flag.StringVar(&opts.modules, "modules", "representative", "module population: representative or full")
	flag.IntVar(&opts.x, "x", 0, "majority width when the x axis is not swept (0 = 3; op=maj only)")
	flag.IntVar(&opts.n, "n", 0, "activated rows when the n axis is not swept (0 = 32)")
	flag.IntVar(&opts.trials, "trials", 0, "trials per row group (0 = default)")
	flag.IntVar(&opts.groups, "groups", 0, "row groups per subarray (0 = default)")
	flag.IntVar(&opts.banks, "banks", 0, "banks sampled per module (0 = default)")
	flag.IntVar(&opts.cols, "cols", 0, "simulated columns per subarray (0 = default)")
	flag.Uint64Var(&opts.seed, "seed", 0, "experiment seed (0 = default)")
	flag.IntVar(&opts.workers, "workers", 0, "parallel shards (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	flag.StringVar(&opts.format, "format", charexp.FormatText, "output format: text, csv, or columnar")
	flag.Parse()

	start := time.Now()
	stats, err := run(os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simra-scan:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(engine: %s; %s)\n", stats, time.Since(start).Round(time.Millisecond))
}

// run executes the scenario and writes the report through the shared
// resolution/rendering path (internal/scenario.Options), so the bytes on
// w are the same contract simra-serve serves on /v1/scenario. All output
// on w is deterministic; statistics and timing go to stderr in main.
func run(w io.Writer, opts options) (simra.EngineStats, error) {
	if err := charexp.CheckFormat(opts.format); err != nil {
		return simra.EngineStats{}, err
	}
	cfg, err := simra.ResolveScenario(simra.ScenarioOptions{
		Op:       opts.op,
		Grid:     opts.grid,
		Axes:     opts.axes,
		Envelope: opts.envelope,
		Target:   opts.target,
		Modules:  opts.modules,
		X:        opts.x,
		N:        opts.n,
		Trials:   opts.trials,
		Groups:   opts.groups,
		Banks:    opts.banks,
		Columns:  opts.cols,
		Seed:     opts.seed,
		Workers:  opts.workers,
	})
	if err != nil {
		return simra.EngineStats{}, err
	}
	res, err := simra.RunScenarios(context.Background(), cfg)
	if err != nil {
		return simra.EngineStats{}, err
	}
	if err := simra.WriteScenarioReport(w, res, opts.format); err != nil {
		return simra.EngineStats{}, err
	}
	return res.Stats, nil
}
