package main

import (
	"fmt"

	simra "repro"
	"repro/pkg/simraclient"
)

// The simulated input shape shared by every workload: a 64-column slice
// of the representative fleet, 2 trials and 2 row groups per subarray in
// 1 bank. It is small enough that a char-sweep op takes about 65 ms on a
// 2-vCPU host, so a 10-second window already holds the 100 ops that put
// 10 samples beyond p90.
const (
	simCols   = 64
	simTrials = 2
	simGroups = 2
	simBanks  = 1
	fig15Sets = 20
	// coldFigure is the serve-cold sweep: Fig. 11 is the smallest
	// simulated figure (15 sweeps), so request-path layers keep a
	// visible share of each request.
	coldFigure = "11"
	// workloadName is the jobs-fleet and serve-warm workload family.
	workloadName = "bitmap-scan"
)

// charFigures is one char-sweep op: the figures of the paper's
// evaluation that simulate many-row activation (3), MAJX (6, 7, 8) and
// Multi-RowCopy (10, 11), plus the SPICE Monte-Carlo (15).
var charFigures = []string{"3", "6", "7", "8", "10", "11", "15"}

var formats = []string{"text", "csv", "columnar"}

// Seed streams keep the inputs of different purposes independent.
const (
	streamOp     = 1 // timed ops
	streamWarm   = 2 // set-up warm-up ops
	streamHot    = 3 // serve-warm hot set
	streamLadder = 4 // layer ladder
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed is the input seed of op i of one stream of a run. It is a
// stateless hash, so any op's inputs can be regenerated after the
// window for the output check. It is never 0, which the program reads
// as "use the default seed".
func deriveSeed(run uint64, stream, i int64) uint64 {
	s := mix(mix(run) ^ mix(uint64(stream)<<32^uint64(i)))
	if s == 0 {
		s = 1
	}
	return s
}

// charConfig is the char-sweep op configuration for one root seed.
func charConfig(seed uint64, workers int) simra.ExperimentConfig {
	fc := simra.DefaultFleetConfig()
	fc.Columns = simCols
	cfg := simra.DefaultExperimentConfig()
	cfg.Fleet = simra.FleetRepresentative(fc)
	cfg.Trials, cfg.GroupsPerSubarray, cfg.Banks = simTrials, simGroups, simBanks
	cfg.Seed = seed
	cfg.Engine = simra.EngineConfig{Workers: workers}
	return cfg
}

// sweepRequest is a /v1/sweep request of the shared shape.
func sweepRequest(fig string, seed uint64, format string) simraclient.SweepRequest {
	return simraclient.SweepRequest{
		Figure: fig, Trials: simTrials, Groups: simGroups, Banks: simBanks,
		Columns: simCols, Seed: seed, Format: format,
	}
}

// coldRequest is serve-cold op i: a fresh seed every request and the
// formats in rotation, so every request misses the cache.
func coldRequest(run uint64, i int64) simraclient.SweepRequest {
	return sweepRequest(coldFigure, deriveSeed(run, streamOp, i), formats[i%3])
}

// workloadRequest is a small workload run of the shared shape.
func workloadRequest(seed uint64, format string) simraclient.WorkloadRequest {
	return simraclient.WorkloadRequest{
		Workloads: workloadName, Modules: "representative",
		Columns: simCols, Seed: seed, Format: format,
	}
}

// jobRequest is jobs-fleet op i: a fresh-seed workload job.
func jobRequest(run uint64, i int64) simraclient.JobRequest {
	q := workloadRequest(deriveSeed(run, streamOp, i), "text")
	return simraclient.JobRequest{Kind: "workload", Workload: &q}
}

// scenarioRequest is a small nominal-grid scan of the shared shape.
func scenarioRequest(seed uint64, format string) simraclient.ScenarioRequest {
	return simraclient.ScenarioRequest{
		Op: "maj", Grid: "nominal", Trials: simTrials, Groups: simGroups,
		Banks: simBanks, Columns: simCols, Seed: seed, Format: format,
	}
}

// campaignRequest is a /v1/campaign request; the SDK has no campaign
// type, so it mirrors the documented body.
type campaignRequest struct {
	Workload  string `json:"workload,omitempty"`
	FleetSize int    `json:"size,omitempty"`
	Columns   int    `json:"cols,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Format    string `json:"format,omitempty"`
}

// pageRows is the serve-warm ?batch page size: Fig. 11's 15 rows make
// four pages.
const pageRows = 4

// hotItem is one serve-warm request.
type hotItem struct {
	name  string
	kind  string // sweep, workload, trng, scenario, campaign, page
	seed  uint64
	fmt   string
	batch int // page index (kind "page")
}

// hotSet is the serve-warm request set of one run: every family in
// every format it serves (the TRNG family has one), plus every ?batch
// page of the columnar sweep.
func hotSet(run uint64) []hotItem {
	seed := deriveSeed(run, streamHot, 0)
	var hot []hotItem
	for _, kind := range []string{"sweep", "workload", "trng", "scenario", "campaign"} {
		for _, f := range formats {
			if kind == "trng" && f != "text" {
				continue
			}
			hot = append(hot, hotItem{name: kind + "/" + f, kind: kind, seed: seed, fmt: f})
		}
	}
	for b := 0; b < 4; b++ {
		hot = append(hot, hotItem{name: fmt.Sprintf("page/%d", b), kind: "page", seed: seed, fmt: "columnar", batch: b})
	}
	return hot
}
