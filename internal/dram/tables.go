package dram

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/cache"
	"repro/internal/xrand"
)

// saTables holds one subarray's static process-variation tables, shared by
// every Subarray instance with the same simulation identity (module spec +
// electrical params + subarray coordinates). Every entry is a pure
// function of structural coordinates, so sharing never changes a result —
// it only stops scenario grid points, warmpool recycles and cluster
// workers from re-deriving the same per-cell draws for every private
// module instance they build.
//
// The eager per-column/per-row tables are built once under init. The lazy
// per-cell rows live in one slot per row: each is derived and published
// once under mu, and readers load it lock-free after that. The jitter
// runs, coupling rows and coin planes are guarded by mu.
type saTables struct {
	init sync.Once

	// Registry bookkeeping, guarded by tableReg's lock.
	key     tableKey
	charged int64 // bytes charged while registered
	evicted bool  // dropped from the registry; rows no longer count

	theta     []float64  // per-column reliable sensing threshold
	saBias    bitvec.Vec // per-column sense-amp bias sign (Frac readout)
	latchNorm []float64  // per-row predecoder latch draw
	wlThresh  []float64  // per-row wordline settle threshold (ns)
	cells     []cellSlots

	mu            sync.Mutex
	couplingNorms map[uint64][]float64
	metaPlanes    map[metaPlaneKey][]uint64
}

// The lazy per-cell row kinds, indexing cellSlots.rows.
const (
	rowFrac     = iota // Frac residual draws
	rowWeakWR          // weak-write uniforms, then one floor per word
	rowWeakCopy        // weak-copy uniforms, then one floor per word
	rowWbase           // charge-share weight base, 1 + CellCapSigma·gamma
	rowKinds
)

// cellSlots holds one row's lazy per-cell rows. A slot is stored once,
// under the set's mu, and never changes after, so it is loaded without a
// lock. The jitter run is guarded by mu.
type cellSlots struct {
	rows     [rowKinds]atomic.Pointer[[]float64]
	jit      []float64 // per-(row, trial) assertion jitter draws, one run
	jitStart int       // first trial of jit
}

// tableKey identifies one subarray's static tables across module
// instances: the shared HashModule block (module identity, geometry,
// profile and electrical params) plus the subarray coordinates.
type tableKey struct {
	mod      cache.Key
	bank, sa int
}

// tableRegBudget bounds the registry by the bytes its table sets hold:
// the eager per-column and per-row tables, the slot array, every
// published per-cell row with its slice header, every jitter and coupling
// row, every coin plane, and a fixed overhead per set. Once a charge
// takes the registered sets past it, the oldest sets are evicted until
// the rest fit. Every entry is recomputable, and instances that already
// attached keep their pointers, so eviction only costs re-derivation for
// future attachments. Fresh-seed workloads build new rows forever;
// without the bound they would retain every one. The budget is large
// enough that a server fed fresh seeds evicts a set only after many
// requests have reused it. It is a variable only so tests can force
// evictions.
var tableRegBudget int64 = 256 << 20

// setOverhead is the fixed charge of one table set: the saTables struct
// plus the headers of its two memo maps and its registry map and order
// entries, rounded up to 256 bytes.
const setOverhead = int(unsafe.Sizeof(saTables{})) + 256

// rowHeader is the charge of a published row's heap slice header.
const rowHeader = int(unsafe.Sizeof([]float64(nil)))

// tableReg is the process-wide registry. Its lock is taken after a table
// set's mu, never before: rows are charged while their set is locked.
var tableReg = struct {
	sync.Mutex
	m         map[tableKey]*saTables
	order     []*saTables // registered sets, oldest first
	bytes     int64       // Σ charged over the registered sets
	evictions int64
}{m: make(map[tableKey]*saTables)}

// charge counts n bytes the set just came to hold (or, negative, just
// dropped) against the registry budget, evicting the oldest sets while the
// registry is over it. Rows published by an evicted set live only as long
// as the instances holding it, so they are not counted.
func (t *saTables) charge(n int) {
	if n == 0 {
		return
	}
	tableReg.Lock()
	defer tableReg.Unlock()
	if t.evicted {
		return
	}
	t.charged += int64(n)
	tableReg.bytes += int64(n)
	evictOverBudget()
}

// evictOverBudget drops the oldest registered sets until the rest fit the
// budget. The caller holds tableReg's lock.
func evictOverBudget() {
	for tableReg.bytes > tableRegBudget {
		old := tableReg.order[0]
		tableReg.order[0] = nil
		tableReg.order = tableReg.order[1:]
		delete(tableReg.m, old.key)
		tableReg.bytes -= old.charged
		old.evicted = true
		tableReg.evictions++
	}
}

// Derivation counters, exported through TableDerivations so tests can pin
// that table reuse actually happens (and stays happening).
var (
	statStaticSets atomic.Int64
	statCellRows   atomic.Int64
)

// TableDerivations reports how many eager per-subarray static table sets
// and lazy per-cell table rows have been derived process-wide. Deriving is
// the expensive part (one Norm/Uniform per cell); cache hits don't count.
func TableDerivations() (staticSets, cellRows int64) {
	return statStaticSets.Load(), statCellRows.Load()
}

// RegistryStats is a snapshot of the static-table registry.
type RegistryStats struct {
	Sets           int   // table sets registered now
	Bytes          int64 // bytes charged to them
	Budget         int64 // the byte budget
	Evictions      int64 // sets evicted since start
	SetDerivations int64 // eager table sets derived since start
	RowDerivations int64 // lazy per-cell rows derived since start
}

// Registry reports the static-table registry's state.
func Registry() RegistryStats {
	sets, rows := TableDerivations()
	tableReg.Lock()
	defer tableReg.Unlock()
	return RegistryStats{Sets: len(tableReg.m), Bytes: tableReg.bytes, Budget: tableRegBudget,
		Evictions: tableReg.evictions, SetDerivations: sets, RowDerivations: rows}
}

// tablesFor returns the shared table set for the key, creating an
// unbuilt entry on first sight.
func tablesFor(k tableKey) *saTables {
	tableReg.Lock()
	defer tableReg.Unlock()
	if t, ok := tableReg.m[k]; ok {
		return t
	}
	t := &saTables{key: k}
	tableReg.m[k] = t
	tableReg.order = append(tableReg.order, t)
	return t
}

// floatRow allocates a row of n float64s with its capacity rounded up to
// the allocator's size class, so 8*cap is the bytes the row really holds.
func floatRow(n int) []float64 { return slices.Grow([]float64(nil), n)[:n] }

// attachTables binds the subarray to its shared static tables, building
// the eager per-column and per-row tables on first attachment.
func (s *Subarray) attachTables() {
	t := tablesFor(tableKey{mod: s.mod.tabKey, bank: s.bankIdx, sa: s.saIdx})
	t.init.Do(func() {
		t.theta = floatRow(s.cols)
		t.saBias = bitvec.New(s.cols)
		t.latchNorm = floatRow(s.rows)
		t.wlThresh = floatRow(s.rows)
		for c := 0; c < s.cols; c++ {
			t.theta[c] = s.mod.params.SenseThreshold(s.colNorm(c, tagTheta))
			t.saBias.Set(c, s.colNorm(c, tagSABias) > 0)
		}
		for r := 0; r < s.rows; r++ {
			t.latchNorm[r] = s.rowNorm(r, tagLatch)
			t.wlThresh[r] = s.mod.params.WLThreshold(s.rowNorm(r, tagWL))
		}
		t.cells = slices.Grow([]cellSlots(nil), s.rows)[:s.rows]
		t.couplingNorms = make(map[uint64][]float64)
		t.metaPlanes = make(map[metaPlaneKey][]uint64)
		statStaticSets.Add(1)
		t.charge(t.eagerBytes())
	})
	s.tab = t
}

// eagerBytes is what a built set holds before any lazy row: the per-column
// and per-row tables, the slot array and the fixed per-set overhead.
func (t *saTables) eagerBytes() int {
	return 8*(cap(t.theta)+cap(t.saBias.Words())+cap(t.latchNorm)+cap(t.wlThresh)) +
		cap(t.cells)*int(unsafe.Sizeof(cellSlots{})) + setOverhead
}

// cellRow returns one row of a lazy per-cell table, loading the published
// row lock-free and deriving it on first access. Published rows are
// immutable.
func (s *Subarray) cellRow(row, kind int) []float64 {
	if r := s.tab.cells[row].rows[kind].Load(); r != nil {
		return *r
	}
	return s.tab.deriveRow(s, row, kind)
}

// deriveRow derives, publishes and charges one lazy per-cell row, unless
// a concurrent first reader published it while this one waited for mu.
// Each derivation counts once in the derivation counters; the wbase row
// draws the cells' capacitance variation inline, the one table that reads
// it.
func (t *saTables) deriveRow(s *Subarray, row, kind int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := &t.cells[row].rows[kind]
	if r := slot.Load(); r != nil {
		return *r
	}
	var r []float64
	switch kind {
	case rowFrac:
		r = floatRow(s.cols)
		for c := range r {
			r[c] = s.cellNorm(row, c, tagFrac)
		}
	case rowWbase:
		r = floatRow(s.cols)
		sigma := s.mod.params.CellCapSigma
		for c := range r {
			r[c] = 1 + sigma*s.cellNorm(row, c, tagGamma)
		}
	case rowWeakWR, rowWeakCopy:
		tag := uint64(tagWeakWR)
		if kind == rowWeakCopy {
			tag = tagWeakCopy
		}
		r = floatRow(s.cols + s.words)
		u, floor := r[:s.cols], r[s.cols:]
		for c := range u {
			u[c] = xrand.Uniform(s.key3(uint64(row), uint64(c), tag))
		}
		for wi := range floor {
			floor[wi] = slices.Min(u[wi*64 : min(wi*64+64, s.cols)])
		}
	}
	slot.Store(&r)
	statCellRows.Add(1)
	t.charge(rowHeader + 8*cap(r))
	return r
}

// jitRow returns the row's assertion-jitter normal draws for trials
// first..first+n-1. Each row keeps one run of consecutive draws, starting
// at the first trial requested: a window inside the run is a slice of it,
// a window reaching past the run's end appends to it, and a window that
// starts before the run or beyond its end starts a fresh run at its own
// first trial. The draws are pure functions of (row, trial), so the timing
// sweeps that replay trials 0..T-1 at every grid cell share one Box-Muller
// evaluation per draw, while a calibration probe that looks at a row over
// a few late trials holds only those. Published arrays are never
// rewritten — appends land past every returned window and a fresh run is
// a new array — so the returned window is safe to read outside the lock.
// The run's draws are what is charged: a fresh run returns the old run's
// charge. No fresh per-cell table derivation happens here (it is the same
// per-trial draw the scalar path makes inline), so it doesn't count toward
// the derivation counters.
func (t *saTables) jitRow(s *Subarray, row, first, n int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, grown := t.jitWindow(s, row, first, n)
	t.charge(grown)
	return w
}

// jitWindows is jitRow for every rows[i] whose bit i is set in need,
// under one table lock and one registry charge: wins[i] receives that
// row's window.
func (t *saTables) jitWindows(s *Subarray, rows []int, need uint64, first, n int, wins [][]float64) {
	if need == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	grown := 0
	for i, r := range rows {
		if need>>uint(i)&1 == 1 {
			var g int
			wins[i], g = t.jitWindow(s, r, first, n)
			grown += g
		}
	}
	t.charge(grown)
}

// jitWindow is jitRow's body. The caller holds t.mu and charges the
// returned byte delta.
func (t *saTables) jitWindow(s *Subarray, row, first, n int) ([]float64, int) {
	cell := &t.cells[row]
	r, start := cell.jit, cell.jitStart
	grown := 0
	if first < start || first > start+len(r) {
		grown -= 8 * len(r)
		r, start = nil, first
		cell.jitStart = first
	}
	end := first + n
	if have := start + len(r); end > have {
		grown += 8 * (end - have)
		// key3(row, trial, tagJitter) with the row prefix hoisted.
		k := s.keyChain.Mix(uint64(row))
		for trial := have; trial < end; trial++ {
			r = append(r, xrand.Norm(k.Mix(uint64(trial)).Mix(tagJitter).Sum()))
		}
		cell.jit = r
	}
	return r[first-start : end-start : end-start], grown
}

// metaPlaneKey addresses one packed metastable-coin plane: the group's
// draw key, the trial, and which draw family (metaResolve's bare chain or
// metaOverlay's Mix(1)-suffixed chain).
type metaPlaneKey struct {
	group   uint64
	trial   int
	overlay bool
}

// metaPlaneMax bounds the coin-plane cache; beyond it the map resets and
// the dropped planes' bytes are refunded to the registry.
const metaPlaneMax = 1 << 14

// metaPlane returns the packed per-column metastable coin draws of one
// (group, trial): bit c is the exact Sum()&1 draw metaResolve (overlay
// false) or metaOverlay (overlay true) makes for column c. The draws are
// pure functions of (groupKey, column, trial), so sweeps that revisit a
// group share one hashing pass per trial. Published planes are read-only.
func (t *saTables) metaPlane(s *Subarray, groupKey uint64, trial int, overlay bool) []uint64 {
	key := metaPlaneKey{group: groupKey, trial: trial, overlay: overlay}
	t.mu.Lock()
	r, ok := t.metaPlanes[key]
	t.mu.Unlock()
	if ok {
		return r
	}
	r = make([]uint64, s.words)
	gc := xrand.Begin().Mix(groupKey)
	for wi := range r {
		var word uint64
		base := wi * 64
		nb := s.cols - base
		if nb > 64 {
			nb = 64
		}
		for b := 0; b < nb; b++ {
			ch := gc.Mix(uint64(base + b)).Mix(uint64(trial)).Mix(tagMeta)
			if overlay {
				ch = ch.Mix(1)
			}
			if ch.Sum()&1 == 1 {
				word |= 1 << uint(b)
			}
		}
		r[wi] = word
	}
	t.mu.Lock()
	if won, ok := t.metaPlanes[key]; ok {
		t.mu.Unlock()
		return won // a concurrent miss published (and charged) it first
	}
	grown := 8 * len(r)
	if len(t.metaPlanes) >= metaPlaneMax {
		grown -= 8 * s.words * len(t.metaPlanes)
		t.metaPlanes = make(map[metaPlaneKey][]uint64)
	}
	t.metaPlanes[key] = r
	t.mu.Unlock()
	t.charge(grown)
	return r
}

// couplingCacheMax bounds the per-group coupling-noise rows of one table
// set; beyond it the map resets (rows are recomputable at any time) and
// the dropped rows' bytes are refunded to the registry.
const couplingCacheMax = 1 << 12

// couplingRow returns the per-column coupling-noise draws of one group,
// deriving and publishing them on first access.
func (t *saTables) couplingRow(cols int, groupKey uint64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.couplingNorms[groupKey]; ok {
		return r
	}
	grown := 8 * cols
	if len(t.couplingNorms) >= couplingCacheMax {
		grown -= 8 * cols * len(t.couplingNorms)
		t.couplingNorms = make(map[uint64][]float64)
	}
	r := make([]float64, cols)
	gc := xrand.Begin().Mix(groupKey)
	for c := range r {
		r[c] = xrand.NormOf(gc.Mix(uint64(c)).Mix(tagCoupling).Sum())
	}
	t.couplingNorms[groupKey] = r
	t.charge(grown)
	return r
}
