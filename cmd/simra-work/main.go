// Command simra-work runs the end-to-end in-DRAM application workloads
// across the simulated module fleet and prints one result row per
// (module, workload) cell: success rate vs. the software reference,
// output digest, and modeled time/energy/throughput.
//
// Usage:
//
//	simra-work                                  # all workloads, representative fleet
//	simra-work -workload bitmap-scan -workers 8 # one workload, 8 shard workers
//	simra-work -modules full -format csv        # full Table-2 fleet, CSV output
//	simra-work -modules all                     # Table-2 fleet + Samsung controls
//
// Output is deterministic for a given configuration and bit-identical for
// every -workers value (verified by the golden-file test).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	simra "repro"
	"repro/internal/charexp"
)

// options carries the parsed flags.
type options struct {
	workload string
	modules  string
	workers  int
	maxX     int
	cols     int
	seed     uint64
	format   string
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "all",
		"workload to run: all or a registered name (comma-separated for several)")
	flag.StringVar(&opts.modules, "modules", "representative",
		"module population: representative, full, samsung, or all")
	flag.IntVar(&opts.workers, "workers", 0,
		"parallel module shards (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	flag.IntVar(&opts.maxX, "maxx", 0, "majority-width cap (0 = default)")
	flag.IntVar(&opts.cols, "cols", 512, "simulated columns (SIMD lanes) per subarray")
	flag.Uint64Var(&opts.seed, "seed", 0, "experiment seed (0 = default)")
	flag.StringVar(&opts.format, "format", charexp.FormatText, "output format: text, csv, or columnar")
	flag.Parse()

	start := time.Now()
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "simra-work:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(%s)\n", time.Since(start).Round(time.Millisecond))
}

// run executes the selected workloads and writes the report through the
// shared resolution/rendering path (internal/workload.Options), so the
// output bytes are the same contract simra-serve serves. All output on w
// is deterministic; timing goes to stderr in main.
func run(w io.Writer, opts options) error {
	if err := charexp.CheckFormat(opts.format); err != nil {
		return err
	}
	cfg, err := simra.ResolveWorkloads(simra.WorkloadOptions{
		Workloads: opts.workload,
		Modules:   opts.modules,
		Workers:   opts.workers,
		MaxX:      opts.maxX,
		Columns:   opts.cols,
		Seed:      opts.seed,
	})
	if err != nil {
		return err
	}
	results, err := simra.RunWorkloads(context.Background(), cfg)
	if err != nil {
		return err
	}
	return simra.WriteWorkloadReport(w, results, opts.format)
}
