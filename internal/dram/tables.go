package dram

import (
	"sync"
	"sync/atomic"

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
// The eager per-column/per-row tables are built once under init; the lazy
// per-cell rows and per-group coupling rows are guarded by mu. Rows are
// immutable once published, so instances memoize the returned slices
// locally and skip the lock on every later access.
type saTables struct {
	init sync.Once

	// Registry bookkeeping, guarded by tableReg's lock.
	key     tableKey
	charged int64 // row bytes charged while registered
	evicted bool  // dropped from the registry; rows no longer count

	theta     []float64  // per-column reliable sensing threshold
	saBias    bitvec.Vec // per-column sense-amp bias sign (Frac readout)
	latchNorm []float64  // per-row predecoder latch draw
	wlThresh  []float64  // per-row wordline settle threshold (ns)

	mu            sync.Mutex
	gammaRows     [][]float64 // per-cell capacitance draws, by row
	fracRows      [][]float64 // per-cell Frac residual draws, by row
	weakWRRows    [][]float64 // per-cell weak-write uniforms, by row
	weakCopyRows  [][]float64 // per-cell weak-copy uniforms, by row
	wbaseRows     [][]float64 // per-cell charge-share weight base, by row
	jitRows       [][]float64 // per-(row, trial) assertion jitter draws, one run per row
	jitStart      []int       // first trial of each row's jitter run
	couplingNorms map[uint64][]float64
	metaPlanes    map[metaPlaneKey][]uint64
}

// tableKey identifies one subarray's static tables across module
// instances: the shared HashModule block (module identity, geometry,
// profile and electrical params) plus the subarray coordinates.
type tableKey struct {
	mod      cache.Key
	bank, sa int
}

// tableRegBudget bounds the registry by the bytes of the rows its table
// sets publish: the eager per-column and per-row tables, every lazy
// per-cell, charge-share weight, jitter and coupling row, and every coin
// plane. Once a charge takes the registered sets past it, the oldest sets
// are evicted until the rest fit. Every entry is recomputable, and
// instances that already attached keep their pointers, so eviction only
// costs re-derivation for future attachments. Fresh-seed workloads build
// new rows forever; without the bound they would retain every one. The
// budget is large enough that a server fed fresh seeds evicts a set only
// after many requests have reused it. It is a variable only so tests can
// force evictions.
var tableRegBudget int64 = 256 << 20

// tableReg is the process-wide registry. Its lock is taken after a table
// set's mu, never before: rows are charged while their set is locked.
var tableReg = struct {
	sync.Mutex
	m     map[tableKey]*saTables
	order []*saTables // registered sets, oldest first
	bytes int64       // Σ charged over the registered sets
}{m: make(map[tableKey]*saTables)}

// charge counts n bytes of rows the set just published (or, negative, just
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

// attachTables binds the subarray to its shared static tables, building
// the eager per-column and per-row tables on first attachment.
func (s *Subarray) attachTables() {
	t := tablesFor(tableKey{mod: s.mod.tabKey, bank: s.bankIdx, sa: s.saIdx})
	t.init.Do(func() {
		t.theta = make([]float64, s.cols)
		t.saBias = bitvec.New(s.cols)
		t.latchNorm = make([]float64, s.rows)
		t.wlThresh = make([]float64, s.rows)
		for c := 0; c < s.cols; c++ {
			t.theta[c] = s.mod.params.SenseThreshold(s.colNorm(c, tagTheta))
			t.saBias.Set(c, s.colNorm(c, tagSABias) > 0)
		}
		for r := 0; r < s.rows; r++ {
			t.latchNorm[r] = s.rowNorm(r, tagLatch)
			t.wlThresh[r] = s.mod.params.WLThreshold(s.rowNorm(r, tagWL))
		}
		t.gammaRows = make([][]float64, s.rows)
		t.fracRows = make([][]float64, s.rows)
		t.weakWRRows = make([][]float64, s.rows)
		t.weakCopyRows = make([][]float64, s.rows)
		t.wbaseRows = make([][]float64, s.rows)
		t.jitRows = make([][]float64, s.rows)
		t.jitStart = make([]int, s.rows)
		t.couplingNorms = make(map[uint64][]float64)
		t.metaPlanes = make(map[metaPlaneKey][]uint64)
		statStaticSets.Add(1)
		// Values of the per-column and per-row tables, plus the headers
		// of the six lazy row tables and the jitter runs' start trials.
		t.charge(8*(s.cols+s.words+3*s.rows) + 6*24*s.rows)
	})
	s.tab = t
}

// cellRow returns one row of a lazy per-cell table, deriving and
// publishing it on first access. Published rows are immutable.
func (t *saTables) cellRow(s *Subarray, table [][]float64, row int, tag uint64, uniform bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := table[row]; r != nil {
		return r
	}
	r := make([]float64, s.cols)
	for c := range r {
		if uniform {
			r[c] = xrand.Uniform(s.key3(uint64(row), uint64(c), tag))
		} else {
			r[c] = s.cellNorm(row, c, tag)
		}
	}
	table[row] = r
	statCellRows.Add(1)
	t.charge(8 * len(r))
	return r
}

// wbaseRow returns one row's precomputed charge-share weight base,
// 1 + CellCapSigma·gamma[c] — the trial-invariant factor shareDetMeta
// multiplies by the row's drive weight. No fresh RNG derivation happens
// here (it is arithmetic over the gamma row), so it doesn't count toward
// the derivation counters. Published rows are immutable.
func (t *saTables) wbaseRow(s *Subarray, row int) []float64 {
	gamma := s.gammaRow(row) // derive outside t.mu: gammaRow locks too
	sigma := s.mod.params.CellCapSigma
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.wbaseRows[row]; r != nil {
		return r
	}
	r := make([]float64, s.cols)
	for c := range r {
		r[c] = 1 + sigma*gamma[c]
	}
	t.wbaseRows[row] = r
	t.charge(8 * len(r))
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
	r, start := t.jitRows[row], t.jitStart[row]
	grown := 0
	if first < start || first > start+len(r) {
		grown -= 8 * len(r)
		r, start = nil, first
		t.jitStart[row] = first
	}
	end := first + n
	if have := start + len(r); end > have {
		grown += 8 * (end - have)
		// key3(row, trial, tagJitter) with the row prefix hoisted.
		k := s.keyChain.Mix(uint64(row))
		for trial := have; trial < end; trial++ {
			r = append(r, xrand.Norm(k.Mix(uint64(trial)).Mix(tagJitter).Sum()))
		}
		t.jitRows[row] = r
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
