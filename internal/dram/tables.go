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
// runs, coupling rows, coin planes and derived values are guarded by mu.
type saTables struct {
	init sync.Once

	// Registry bookkeeping, guarded by tableReg's lock. reused is set
	// under it but also read without it, so that a recycled instance
	// checks it cheaply.
	key        tableKey
	charged    int64       // bytes charged while registered
	q          *setQueue   // the queue holding the set; nil once evicted
	prev, next *saTables   // the older and newer neighbours in q
	reused     atomic.Bool // reused since the last aging pass

	theta     []float64  // per-column reliable sensing threshold
	saBias    bitvec.Vec // per-column sense-amp bias sign (Frac readout)
	latchNorm []float64  // per-row predecoder latch draw
	wlThresh  []float64  // per-row wordline settle threshold (ns)
	cells     []cellSlots

	mu            sync.Mutex
	couplingNorms map[uint64][]float64
	metaPlanes    map[metaPlaneKey][]uint64
	derived       map[any]derivedEntry // see Subarray.Derived; nil until first use
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
// published per-cell row with its slice header, every jitter run and
// coupling row at its capacity, every coin plane, every derived value
// with its entry, and a fixed overhead per set. The registry keeps two
// queues under it, after 2Q (Johnson & Shasha, VLDB 1994): a new set
// enters probation, and a reuse — a second instance attaching it, or a
// warm-pool recycle of an instance holding it — moves it to the
// protected queue. Probation holds at most 1/probationShare of the
// budget, beyond which its oldest sets are evicted; the oldest protected
// sets are evicted while the registry is over the budget. Each time the
// registry has been charged probation's share in new bytes, an aging
// pass moves every protected set not reused since the previous pass back
// to probation, where a reuse promotes it again. So a set stays while it
// is reused within that much new table work, and a workload whose sets
// come back only after more (a characterization pass per fresh seed)
// retains about probation's share, while a server that keeps returning
// to its fleet's sets keeps them. Every entry is recomputable, and
// instances that already attached keep their pointers, so eviction only
// costs re-derivation for future attachments. It is a variable only so
// tests can force evictions.
var tableRegBudget int64 = 256 << 20

// probationShare sets probation's part of the budget, and the new bytes
// between aging passes: 1/8, 32 MiB of the default budget.
const probationShare = 8

// setOverhead is the fixed charge of one table set: the saTables struct
// plus the headers of its memo maps and its registry map entry, rounded
// up to 256 bytes.
const setOverhead = int(unsafe.Sizeof(saTables{})) + 256

// rowHeader is the charge of a published row's heap slice header.
const rowHeader = int(unsafe.Sizeof([]float64(nil)))

// setQueue is one of the registry's queues, oldest set first, linked
// through the sets themselves so that a promotion unlinks a set from the
// middle of probation in constant time.
type setQueue struct {
	oldest, newest *saTables
	bytes          int64 // Σ charged over the queued sets
}

func (q *setQueue) push(t *saTables) {
	t.q, t.prev, t.next = q, q.newest, nil
	if q.newest != nil {
		q.newest.next = t
	} else {
		q.oldest = t
	}
	q.newest = t
	q.bytes += t.charged
}

func (q *setQueue) remove(t *saTables) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		q.oldest = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		q.newest = t.prev
	}
	t.q, t.prev, t.next = nil, nil, nil
	q.bytes -= t.charged
}

// tableReg is the process-wide registry. Its lock is taken after a table
// set's mu, never before: rows are charged while their set is locked.
var tableReg = struct {
	sync.Mutex
	m                    map[tableKey]*saTables
	probation, protected setQueue
	sinceAging           int64 // bytes charged since the last aging pass
	evictions            int64
	hits, misses         int64 // tablesFor lookups that found a set, and that made one
	promotions           int64 // probation to protected
	demotions            int64 // protected to probation, by aging
}{m: make(map[tableKey]*saTables)}

// charge counts n bytes the set just came to hold (or, negative, just
// dropped) against the registry budget, then evicts what the budget no
// longer holds. Rows published by an evicted set live only as long as
// the instances holding it, so they are not counted.
func (t *saTables) charge(n int) {
	if n == 0 {
		return
	}
	tableReg.Lock()
	defer tableReg.Unlock()
	if t.q == nil {
		return
	}
	t.charged += int64(n)
	t.q.bytes += int64(n)
	if n > 0 {
		tableReg.sinceAging += int64(n)
		if tableReg.sinceAging > tableRegBudget/probationShare {
			age()
		}
	}
	evictOverBudget()
}

// age moves every protected set not reused since the last pass back to
// probation, newest, and starts a new pass. The caller holds tableReg's
// lock.
func age() {
	tableReg.sinceAging = 0
	for t := tableReg.protected.oldest; t != nil; {
		next := t.next
		if !t.reused.Swap(false) {
			tableReg.protected.remove(t)
			tableReg.probation.push(t)
			tableReg.demotions++
		}
		t = next
	}
}

// evictOverBudget evicts the oldest probation sets while probation holds
// more than its share of the budget, then the oldest protected sets while
// the registry holds more than the budget. The caller holds tableReg's
// lock.
func evictOverBudget() {
	for {
		q := &tableReg.probation
		if q.bytes <= tableRegBudget/probationShare {
			if q.bytes+tableReg.protected.bytes <= tableRegBudget {
				return
			}
			q = &tableReg.protected
		}
		old := q.oldest
		q.remove(old)
		delete(tableReg.m, old.key)
		tableReg.evictions++
	}
}

// promote records a reuse of the set: a probation set moves to the
// protected queue, a protected one is kept at the next aging pass. The
// caller holds tableReg's lock.
func (t *saTables) promote() {
	if t.reused.Load() {
		return
	}
	t.reused.Store(true)
	if t.q != &tableReg.probation {
		return
	}
	tableReg.probation.remove(t)
	tableReg.protected.push(t)
	tableReg.promotions++
}

// recycled records that a warm pool is recycling an instance holding the
// set, a reuse. Until the next aging pass, it takes no lock again.
func (t *saTables) recycled() {
	if t.reused.Load() {
		return
	}
	tableReg.Lock()
	defer tableReg.Unlock()
	t.promote()
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
	ProbationBytes int64 // the part charged to sets in probation
	Budget         int64 // the byte budget
	Evictions      int64 // sets evicted since start
	LookupHits     int64 // attachments that found their set registered, since start
	LookupMisses   int64 // attachments that registered a new set, since start
	Promotions     int64 // sets moved from probation to protected since start
	Demotions      int64 // protected sets aged back to probation since start
	SetDerivations int64 // eager table sets derived since start
	RowDerivations int64 // lazy per-cell rows derived since start
}

// Registry reports the static-table registry's state.
func Registry() RegistryStats {
	sets, rows := TableDerivations()
	tableReg.Lock()
	defer tableReg.Unlock()
	return RegistryStats{Sets: len(tableReg.m),
		Bytes:          tableReg.probation.bytes + tableReg.protected.bytes,
		ProbationBytes: tableReg.probation.bytes, Budget: tableRegBudget,
		Evictions: tableReg.evictions, LookupHits: tableReg.hits, LookupMisses: tableReg.misses,
		Promotions: tableReg.promotions, Demotions: tableReg.demotions,
		SetDerivations: sets, RowDerivations: rows}
}

// tablesFor returns the shared table set for the key, creating an
// unbuilt probation entry on first sight and promoting a registered one:
// a second instance attaching a set is a reuse.
func tablesFor(k tableKey) *saTables {
	tableReg.Lock()
	defer tableReg.Unlock()
	if t, ok := tableReg.m[k]; ok {
		tableReg.hits++
		t.promote()
		return t
	}
	tableReg.misses++
	t := &saTables{key: k}
	tableReg.m[k] = t
	tableReg.probation.push(t)
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
	// Each cell draws from key3(row, c, tag), with the row prefix hoisted.
	k := s.keyChain.Mix(uint64(row))
	var r []float64
	switch kind {
	case rowFrac:
		r = floatRow(s.cols)
		for c := range r {
			r[c] = xrand.NormOf(k.Mix(uint64(c)).Mix(tagFrac).Sum())
		}
	case rowWbase:
		r = floatRow(s.cols)
		sigma := s.mod.params.CellCapSigma
		for c := range r {
			r[c] = 1 + sigma*xrand.NormOf(k.Mix(uint64(c)).Mix(tagGamma).Sum())
		}
	case rowWeakWR, rowWeakCopy:
		tag := uint64(tagWeakWR)
		if kind == rowWeakCopy {
			tag = tagWeakCopy
		}
		r = floatRow(s.cols + s.words)
		u, floor := r[:s.cols], r[s.cols:]
		for c := range u {
			u[c] = xrand.Uniform(k.Mix(uint64(c)).Mix(tag).Sum())
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
// The run is charged at its capacity, as the per-cell rows are: a fresh
// run returns the old run's charge. No fresh per-cell table derivation
// happens here (it is the same per-trial draw the scalar path makes
// inline), so it doesn't count toward the derivation counters.
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
// returned byte delta: the capacity of a grown or fresh run, less the
// capacity of the run it replaced. A window inside the run writes
// nothing, so the row's slots stay clean for their lock-free readers.
func (t *saTables) jitWindow(s *Subarray, row, first, n int) ([]float64, int) {
	cell := &t.cells[row]
	r, start := cell.jit, cell.jitStart
	if first < start || first > start+len(r) {
		r, start = nil, first
	}
	end := first + n
	grown := 0
	if have := start + len(r); end > have {
		// key3(row, trial, tagJitter) with the row prefix hoisted.
		k := s.keyChain.Mix(uint64(row))
		for trial := have; trial < end; trial++ {
			r = append(r, xrand.Norm(k.Mix(uint64(trial)).Mix(tagJitter).Sum()))
		}
		grown = 8 * (cap(r) - cap(cell.jit))
		cell.jit, cell.jitStart = r, start
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

// derivedEntry is one published derived value and the bytes its builder
// reported for it.
type derivedEntry struct {
	v    any
	size int
}

// derivedMax bounds the derived values of one table set; beyond it the
// map resets (every value is rebuildable) and the dropped values' bytes
// are refunded to the registry.
const derivedMax = 64

// derivedOverhead is the charge of one derived entry beyond its value's
// bytes: the boxed key (a calibration key is a 64 B object) and
// its map slot (a 16 B interface key and a 24 B entry, up to twice that
// while the map grows).
const derivedOverhead = 160

// Derived returns the value derived under key from the subarray's static
// identity, building it on first use and sharing it with every instance
// of the same identity (module identity, bank and subarray) while their
// table set stays registered. key must be comparable and carry every
// other input of build; build must be a pure function of the identity and
// the key. It returns the value and the bytes the value holds, which are
// charged to the registry with the set; a nil value publishes nothing and
// Derived returns nil. Build runs outside the set's lock, so concurrent
// first uses may build twice: the first to publish wins, and every caller
// gets its value. Published values are shared and must not be modified.
func (s *Subarray) Derived(key any, build func() (v any, size int)) any {
	t := s.tab
	t.mu.Lock()
	e, ok := t.derived[key]
	t.mu.Unlock()
	if ok {
		return e.v
	}
	v, size := build()
	if v == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if won, ok := t.derived[key]; ok {
		return won.v
	}
	grown := size + derivedOverhead
	if len(t.derived) >= derivedMax {
		for _, old := range t.derived {
			grown -= old.size + derivedOverhead
		}
		clear(t.derived)
	}
	if t.derived == nil {
		t.derived = make(map[any]derivedEntry)
	}
	t.derived[key] = derivedEntry{v: v, size: size}
	t.charge(grown)
	return v
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
