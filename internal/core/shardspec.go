package core

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/dram"
)

// ShardSpec is the serializable form of one characterization sweep shard:
// everything a worker needs to recompute the shard's []GroupOutcome from
// scratch, with no shared state. It is the wire format of the cluster
// fan-out for the sweep and scenario families — all fields are exported
// plain data, so the JSON round trip is exact (ints and strings are
// lossless, and encoding/json renders float64s in the shortest form that
// parses back to identical bits).
//
// Exec builds a private module instance; per DESIGN.md §2 a module's
// static tables derive deterministically from its spec seed, so a private
// instance is bit-identical to a shared or pooled one (the scenario and
// warmpool invariance suites assert this).
type ShardSpec struct {
	// Spec and Params rebuild the module and its electrical model.
	Spec   dram.Spec
	Params analog.Params
	// Block is dram.FormatParams(Params), set by in-process callers that
	// already formatted it. JSON skips it, so a spec decoded from the
	// wire has it empty and Exec formats the block itself.
	Block dram.ParamsBlock `json:"-"`
	// Env is the operating environment the sweep runs under.
	Env analog.Env
	// Sweep is the fully bounded sweep configuration (sampling bounds
	// included).
	Sweep SweepConfig
	// Trials and Seed parameterize the tester exactly as the coordinator's
	// runner would.
	Trials int
	Seed   uint64
	// Sample is the (bank, subarray) coordinate this shard characterizes.
	Sample bender.SubarraySample
}

// Exec recomputes the shard on a private (or pooled) module instance,
// mirroring the in-process shard body of internal/charexp (scenario runs
// Exec itself): same tester options, same sweep cell, same sample —
// therefore bit-identical outcomes.
func (s ShardSpec) Exec(pool dram.ModulePool) ([]GroupOutcome, error) {
	pb := s.Block
	if pb == "" {
		pb = dram.FormatParams(s.Params)
	}
	mod, release, err := dram.PoolModule(pool, s.Spec, s.Params, pb)
	if err != nil {
		return nil, fmt.Errorf("core: shard module %s: %w", s.Spec.ID, err)
	}
	defer release()
	tester, err := NewTester(mod,
		WithEnv(s.Env), WithTrials(s.Trials), WithSeed(s.Seed), WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("core: shard module %s: %w", s.Spec.ID, err)
	}
	return tester.SweepShard(s.Sweep, s.Sample)
}
