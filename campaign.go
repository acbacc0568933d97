package simra

import (
	"context"
	"io"

	"repro/internal/campaign"
)

// Campaign-subsystem types (DESIGN.md §15): the fleet-design campaign
// runner searches compositions of the Table-2 module die groups for the
// mix that maximizes reliable throughput per watt on a target workload,
// running the workload once per module (content-addressed engine shards
// shared by every candidate) and scoring each candidate from those runs.
type (
	// Campaign scopes one campaign run: the target workload, the mix size
	// and the ranking bounds.
	Campaign = campaign.Config
	// CampaignResult is a completed campaign: the ranked candidate mixes.
	CampaignResult = campaign.Result
	// CampaignCandidate is one ranked candidate mix.
	CampaignCandidate = campaign.Candidate
	// CampaignOptions is the one declaration of the campaign family's
	// parameters: its tags name the cmd/simra-campaign flags and the
	// serving layer's /v1/campaign fields, so CLI and served responses
	// are byte-identical. Resolve it with ResolveCampaign.
	CampaignOptions = campaign.Options
)

// RunCampaign executes a campaign configuration. Results are
// bit-identical for every worker count, cache mode and cluster fan-out.
func RunCampaign(ctx context.Context, cfg Campaign) (*CampaignResult, error) {
	return campaign.Run(ctx, cfg)
}

// ResolveCampaign validates CLI/serving options and builds the campaign
// configuration.
func ResolveCampaign(o CampaignOptions) (Campaign, error) { return o.Resolve() }

// WriteCampaignReport renders a campaign result to w in the given format
// (text, csv or columnar): the byte-exact output contract shared by
// simra-campaign and the serving layer.
func WriteCampaignReport(w io.Writer, r *CampaignResult, format string) error {
	return campaign.WriteReport(w, r, format)
}
