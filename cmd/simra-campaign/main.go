// Command simra-campaign runs a fleet-design campaign: it searches
// compositions of the Table-2 module die groups for the mix that
// maximizes reliable throughput per watt on a target workload, and
// prints the ranked candidate table (mix counts per die group, reliable
// throughput, power, score).
//
// Usage:
//
//	simra-campaign                                  # bitmap-scan, 3-module mixes
//	simra-campaign -workload image-filter -size 4   # 4-module mixes for image-filter
//	simra-campaign -top 5 -format csv               # top 5 candidates as CSV
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
	"time"

	simra "repro"
	"repro/internal/charexp"
)

// options carries the parsed flags.
type options struct {
	workload string
	size     int
	top      int
	workers  int
	maxX     int
	cols     int
	seed     uint64
	format   string
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "bitmap-scan",
		"target workload the mix is designed for")
	flag.IntVar(&opts.size, "size", 0, "modules per candidate mix (0 = 3)")
	flag.IntVar(&opts.top, "top", 0, "ranked candidates to report (0 = 10)")
	flag.IntVar(&opts.workers, "workers", 0,
		"parallel shards (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	flag.IntVar(&opts.maxX, "maxx", 0, "majority-width cap (0 = default)")
	flag.IntVar(&opts.cols, "cols", 0, "simulated columns (SIMD lanes) per subarray (0 = 512)")
	flag.Uint64Var(&opts.seed, "seed", 0, "experiment seed (0 = default)")
	flag.StringVar(&opts.format, "format", charexp.FormatText, "output format: text, csv, or columnar")
	flag.Parse()

	start := time.Now()
	stats, err := run(os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simra-campaign:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "(engine: %s; %s)\n", stats, time.Since(start).Round(time.Millisecond))
}

// run executes the campaign and writes the report through the shared
// resolution/rendering path (internal/campaign.Options), so the bytes on
// w are the same contract simra-serve serves on /v1/campaign. All output
// on w is deterministic; statistics and timing go to stderr in main.
func run(w io.Writer, opts options) (simra.EngineStats, error) {
	if err := charexp.CheckFormat(opts.format); err != nil {
		return simra.EngineStats{}, err
	}
	cfg, err := simra.ResolveCampaign(simra.CampaignOptions{
		Workload:  opts.workload,
		FleetSize: opts.size,
		Top:       opts.top,
		Workers:   opts.workers,
		MaxX:      opts.maxX,
		Columns:   opts.cols,
		Seed:      opts.seed,
	})
	if err != nil {
		return simra.EngineStats{}, err
	}
	res, err := simra.RunCampaign(context.Background(), cfg)
	if err != nil {
		return simra.EngineStats{}, err
	}
	if err := simra.WriteCampaignReport(w, res, opts.format); err != nil {
		return simra.EngineStats{}, err
	}
	return res.Stats, nil
}
