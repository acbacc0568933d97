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

	simra "repro"
	"repro/internal/charexp"
	"repro/internal/cli"
)

// flags binds simra-campaign's flag surface, the campaign family's
// Options, to fs and returns the options that parsing fills.
func flags(fs *flag.FlagSet) *simra.CampaignOptions {
	opts := &simra.CampaignOptions{Workload: "bitmap-scan", Format: charexp.FormatText}
	cli.Bind(fs, opts)
	return opts
}

func main() {
	cli.Main("simra-campaign", flags, func(w io.Writer, opts *simra.CampaignOptions) (fmt.Stringer, error) {
		return run(w, *opts)
	})
}

// run executes the campaign and writes the report through the shared
// resolution/rendering path (internal/campaign.Options), so the bytes on
// w are the same contract simra-serve serves on /v1/campaign. All output
// on w is deterministic; the driver puts statistics and timing on stderr.
func run(w io.Writer, opts simra.CampaignOptions) (simra.EngineStats, error) {
	if err := charexp.CheckFormat(opts.Format); err != nil {
		return simra.EngineStats{}, err
	}
	cfg, err := simra.ResolveCampaign(opts)
	if err != nil {
		return simra.EngineStats{}, err
	}
	res, err := simra.RunCampaign(context.Background(), cfg)
	if err != nil {
		return simra.EngineStats{}, err
	}
	if err := simra.WriteCampaignReport(w, res, opts.Format); err != nil {
		return simra.EngineStats{}, err
	}
	return res.Stats, nil
}
