package main

import (
	"context"
	"strings"

	simra "repro"
	"repro/internal/engine"
	"repro/internal/trng"
	"repro/pkg/simraclient"
)

// The library renderings below produce, in-process, the bytes the
// server must return for the same request: the CLI ≡ blocking ≡ job
// contract. They map each request onto the library exactly as the CLIs
// do, defaults included.

// sweepRunner builds the runner of a sweep request, as cmd/simra-char
// does; st, when non-nil, is its engine accumulator.
func sweepRunner(q simraclient.SweepRequest, workers int, st *engine.Stats) (*simra.Experiments, error) {
	fc := simra.DefaultFleetConfig()
	fc.Columns = 512
	if q.Columns > 0 {
		fc.Columns = q.Columns
	}
	cfg := simra.DefaultExperimentConfig()
	cfg.Fleet = simra.FleetRepresentative(fc)
	if q.Trials > 0 {
		cfg.Trials = q.Trials
	}
	if q.Groups > 0 {
		cfg.GroupsPerSubarray = q.Groups
	}
	if q.Banks > 0 {
		cfg.Banks = q.Banks
	}
	if q.Seed != 0 {
		cfg.Seed = q.Seed
	}
	cfg.Engine = simra.EngineConfig{Workers: workers}
	cfg.Stats = st
	return simra.NewExperiments(cfg)
}

// libSweep renders a sweep request.
func libSweep(q simraclient.SweepRequest, workers int) (string, error) {
	r, err := sweepRunner(q, workers, nil)
	if err != nil {
		return "", err
	}
	return r.RunFigure(q.Figure, q.Sets, q.Format)
}

// libWorkload renders a workload request, as cmd/simra-work does.
func libWorkload(ctx context.Context, q simraclient.WorkloadRequest, workers int) (string, error) {
	cfg, err := simra.ResolveWorkloads(simra.WorkloadOptions{
		Workloads: q.Workloads, Modules: q.Modules, Workers: workers,
		MaxX: q.MaxX, Columns: q.Columns, Seed: q.Seed,
	})
	if err != nil {
		return "", err
	}
	res, err := simra.RunWorkloads(ctx, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = simra.WriteWorkloadReport(&b, res, q.Format)
	return b.String(), err
}

// libScenario renders a scenario request, as cmd/simra-scan does.
func libScenario(ctx context.Context, q simraclient.ScenarioRequest, workers int) (string, error) {
	cfg, err := simra.ResolveScenario(simra.ScenarioOptions{
		Op: q.Op, Grid: q.Grid, Axes: q.Axes, Envelope: q.Envelope, Target: q.Target,
		Modules: q.Modules, Workers: workers, X: q.X, N: q.N, Trials: q.Trials,
		Groups: q.Groups, Banks: q.Banks, Columns: q.Columns, Seed: q.Seed,
	})
	if err != nil {
		return "", err
	}
	res, err := simra.RunScenarios(ctx, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = simra.WriteScenarioReport(&b, res, q.Format)
	return b.String(), err
}

// libCampaign renders a campaign request, as cmd/simra-campaign does.
func libCampaign(ctx context.Context, q campaignRequest, workers int) (string, error) {
	cfg, err := simra.ResolveCampaign(simra.CampaignOptions{
		Workload: q.Workload, FleetSize: q.FleetSize, Workers: workers,
		Columns: q.Columns, Seed: q.Seed,
	})
	if err != nil {
		return "", err
	}
	res, err := simra.RunCampaign(ctx, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = simra.WriteCampaignReport(&b, res, q.Format)
	return b.String(), err
}

// libTRNG renders a TRNG request, as cmd/simra-trng does.
func libTRNG(q simraclient.TRNGRequest) (string, error) {
	out, err := trng.Generate(trng.Options{Bytes: q.Bytes, Seed: q.Seed, Rows: q.Rows})
	if err != nil {
		return "", err
	}
	return trng.FormatHex(out), nil
}
