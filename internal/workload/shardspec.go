package workload

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/xrand"
)

// ShardSpec is the serializable form of one per-module workload shard:
// the wire format of the cluster fan-out for the workload family.
// Workloads travel by registry name (the code is identical on every
// node); everything else is exported plain data, so the JSON round trip
// is exact.
type ShardSpec struct {
	// Entry is the fleet entry this shard runs on.
	Entry fleet.Entry
	// Params is the electrical model.
	Params analog.Params
	// Block is dram.FormatParams(Params), set by RunFleet, which already
	// formatted it. JSON skips it, so a spec decoded from the wire has it
	// empty and Exec formats the block itself.
	Block dram.ParamsBlock `json:"-"`
	// Workloads names the selected workloads in execution order.
	Workloads []string
	// MaxX and Seed are the resolved run parameters (post-defaults).
	MaxX int
	Seed uint64
}

// Exec recomputes the shard exactly as RunFleet's in-process task body
// does: resolve the named workloads against the registry, derive the
// module's identity-keyed sub-seed, and run the module. The sub-seed
// hashes the module's spec ID — not its fleet position — so the result
// is bit-identical no matter which worker (or fleet composition)
// computes it.
func (s ShardSpec) Exec(pool dram.ModulePool) ([]Result, error) {
	ws := make([]Workload, 0, len(s.Workloads))
	for _, name := range s.Workloads {
		w, err := Get(name)
		if err != nil {
			return nil, fmt.Errorf("workload: shard: %w", err)
		}
		ws = append(ws, w)
	}
	cfg := FleetConfig{Params: s.Params, Workloads: ws, MaxX: s.MaxX, Seed: s.Seed, Pool: pool, pb: s.Block}
	if cfg.pb == "" {
		cfg.pb = dram.FormatParams(s.Params)
	}
	return runModule(s.Entry, cfg, xrand.Hash(s.Seed, nameSeed(s.Entry.Spec.ID)))
}
