package jobs

import (
	"sync"

	"repro/internal/analog"
	"repro/internal/cache"
	"repro/internal/dram"
)

// Warmpool keeps built dram.Module instances warm between jobs,
// implementing dram.ModulePool. Building a module is cheap, but its
// static electrical-draw tables (per-column theta and sense-amp bias,
// per-row latch and wordline norms, cached per-cell draws, coupling
// norms) are populated on first touch; recycling an instance keeps those
// tables hot across jobs over the same fleet. Instances are keyed by the
// same module-identity hash block the shard memos use (spec + electrical
// parameters), and Put resets a returned instance's dynamic state, so a
// pooled checkout is state-equivalent to a freshly built module by
// construction — results stay bit-identical.
type Warmpool struct {
	maxPerKey int

	mu        sync.Mutex
	idle      map[cache.Key][]*dram.Module
	hits      int64
	misses    int64
	discarded int64
}

// WarmpoolStats is a point-in-time snapshot for /metrics.
type WarmpoolStats struct {
	Hits      int64 // checkouts served from an idle instance
	Misses    int64 // checkouts that built a fresh instance
	Discarded int64 // returns dropped at the per-key idle cap
	Idle      int64 // instances currently parked
}

// NewWarmpool returns a pool keeping at most maxPerKey idle instances per
// (spec, params) identity (default 4 when maxPerKey <= 0).
func NewWarmpool(maxPerKey int) *Warmpool {
	if maxPerKey <= 0 {
		maxPerKey = 4
	}
	return &Warmpool{
		maxPerKey: maxPerKey,
		idle:      make(map[cache.Key][]*dram.Module),
	}
}

// poolKey is the module-identity hash: the shared HashModule block under
// a pool-private tag.
func poolKey(spec dram.Spec, pb dram.ParamsBlock) cache.Key {
	return spec.HashModule(cache.NewHasher().Str("warmpool/v1"), pb).Sum()
}

// Get checks out an instance for exclusive use: an idle one when
// available, freshly built otherwise. pb is dram.FormatParams(params).
func (p *Warmpool) Get(spec dram.Spec, params analog.Params, pb dram.ParamsBlock) (*dram.Module, error) {
	k := poolKey(spec, pb)
	p.mu.Lock()
	if q := p.idle[k]; len(q) > 0 {
		m := q[len(q)-1]
		p.idle[k] = q[:len(q)-1]
		p.hits++
		p.mu.Unlock()
		return m, nil
	}
	p.misses++
	p.mu.Unlock()
	return dram.NewModuleBlock(spec, params, pb)
}

// Put resets the instance's dynamic state and parks it for reuse,
// discarding it beyond the per-key cap.
func (p *Warmpool) Put(m *dram.Module) {
	if m == nil {
		return
	}
	m.Reset()
	k := poolKey(m.Spec(), m.ParamsBlock())
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[k]) >= p.maxPerKey {
		p.discarded++
		return
	}
	p.idle[k] = append(p.idle[k], m)
}

// Stats snapshots the pool counters.
func (p *Warmpool) Stats() WarmpoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var idle int64
	for _, q := range p.idle {
		idle += int64(len(q))
	}
	return WarmpoolStats{Hits: p.hits, Misses: p.misses, Discarded: p.discarded, Idle: idle}
}
