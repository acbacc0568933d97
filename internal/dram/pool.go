package dram

import "repro/internal/analog"

// ModulePool recycles pre-built module instances across runs. Module
// construction itself is cheap, but the first touch of every subarray
// hoists large static-draw tables (per-column thresholds, per-row latch
// and wordline draws, lazily materialized per-cell wbase/Frac/weak tables
// and per-group coupling rows — see newSubarray); a pooled instance keeps
// those tables warm. Because every static table is a pure function of
// structural coordinates and Reset restores the dynamic cell state to the
// power-off state of a fresh instance, work on a pooled module is
// bit-identical to work on a freshly built one.
//
// Implementations must be safe for concurrent use and must hand each Get
// caller exclusive ownership of the returned instance until it is Put
// back. internal/jobs.Warmpool is the standard implementation.
type ModulePool interface {
	// Get returns an exclusively owned module for the spec, pooled or
	// freshly built. pb is FormatParams(params), resolved once by the
	// caller's configuration.
	Get(spec Spec, params analog.Params, pb ParamsBlock) (*Module, error)
	// Put returns a module obtained from Get; the caller must not use it
	// afterwards.
	Put(m *Module)
}

// PoolModule returns a module for the spec — from pool when non-nil,
// freshly built otherwise — plus a release function that returns it to
// the pool (a no-op for unpooled instances). The release function is safe
// to call exactly once. pb is FormatParams(params).
func PoolModule(pool ModulePool, spec Spec, params analog.Params, pb ParamsBlock) (*Module, func(), error) {
	if pool == nil {
		m, err := NewModuleBlock(spec, params, pb)
		if err != nil {
			return nil, nil, err
		}
		return m, func() {}, nil
	}
	m, err := pool.Get(spec, params, pb)
	if err != nil {
		return nil, nil, err
	}
	return m, func() { pool.Put(m) }, nil
}

// Reset restores every instantiated subarray to the power-off state of a
// freshly built module — cell planes cleared, wordlines de-asserted —
// while keeping the hoisted static-draw tables, which are pure functions
// of structural coordinates and therefore identical on a fresh instance.
// A reset module is indistinguishable from a new one to every operation;
// pools call it before recycling an instance.
func (m *Module) Reset() {
	for _, b := range m.banks {
		for _, sa := range b.subarrays {
			sa.reset()
		}
	}
}

// reset clears the subarray's dynamic state (cell charge planes, open
// rows, latch mode), preserving the static process-variation tables.
func (s *Subarray) reset() {
	clearWords(s.val)
	clearWords(s.frac)
	s.asserted = nil
	s.copyMode = false
}
