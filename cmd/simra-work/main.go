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

	simra "repro"
	"repro/internal/charexp"
	"repro/internal/cli"
)

// flags binds simra-work's flag surface, the workload family's Options,
// to fs and returns the options that parsing fills.
func flags(fs *flag.FlagSet) *simra.WorkloadOptions {
	opts := &simra.WorkloadOptions{Workloads: "all", Modules: "representative", Columns: 512, Format: charexp.FormatText}
	cli.Bind(fs, opts)
	return opts
}

func main() {
	cli.Main("simra-work", flags, func(w io.Writer, opts *simra.WorkloadOptions) (fmt.Stringer, error) {
		return nil, run(w, *opts)
	})
}

// run executes the selected workloads and writes the report through the
// shared resolution/rendering path (internal/workload.Options), so the
// output bytes are the same contract simra-serve serves. All output on w
// is deterministic; the driver puts timing on stderr.
func run(w io.Writer, opts simra.WorkloadOptions) error {
	if err := charexp.CheckFormat(opts.Format); err != nil {
		return err
	}
	cfg, err := simra.ResolveWorkloads(opts)
	if err != nil {
		return err
	}
	results, err := simra.RunWorkloads(context.Background(), cfg)
	if err != nil {
		return err
	}
	return simra.WriteWorkloadReport(w, results, opts.Format)
}
