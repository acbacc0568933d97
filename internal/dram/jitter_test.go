package dram

import (
	"math"
	"sync"
	"testing"

	"repro/internal/analog"
	"repro/internal/timing"
	"repro/internal/xrand"
)

// freshSubarray returns subarray (0, 0) of a module with its own seed, so
// its table set starts with no jitter draws.
func freshSubarray(t *testing.T, seed uint64) *Subarray {
	t.Helper()
	sa, err := newTestModule(t, ProfileH, seed).Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// checkJitWindow requires the window of draws to equal the inline hash
// draws of trials first..first+len(got)-1.
func checkJitWindow(t *testing.T, sa *Subarray, row, first int, got []float64) {
	t.Helper()
	for i, v := range got {
		if want := xrand.Norm(sa.key3(uint64(row), uint64(first+i), tagJitter)); v != want {
			t.Errorf("row %d trial %d: cached draw %v, inline %v", row, first+i, v, want)
			return
		}
	}
}

// jitCharge returns the capacity of the jitter runs the table set holds
// and the bytes charged to it so far. Between two calls, the charged bytes
// must grow by exactly eight per element of capacity the set came to hold.
func jitCharge(tab *saTables) (held int, charged int64) {
	tab.mu.Lock()
	for i := range tab.cells {
		held += cap(tab.cells[i].jit)
	}
	tab.mu.Unlock()
	tableReg.Lock()
	defer tableReg.Unlock()
	return held, tab.charged
}

// TestJitRowWindows walks one row's jitter run through every transition —
// a first window at a late trial, windows inside the run, windows that
// extend it, one that starts before it and one that starts past its end —
// and checks each window against the inline draws, that windows handed
// out earlier are never rewritten, and that the bytes charged always match
// the capacity held.
func TestJitRowWindows(t *testing.T) {
	sa := freshSubarray(t, 0x717e0001)
	tab := sa.tab
	held0, charged0 := jitCharge(tab)

	const row = 7
	type window struct{ first, n int }
	var kept [][]float64
	var keptFirst []int
	for _, w := range []window{
		{1200, 3}, // a late first request holds only its own draws
		{1201, 2}, // inside the run
		{1203, 3}, // extends the run at its end
		{1204, 9}, // overlaps and extends
		{1190, 4}, // before the run: a fresh run
		{1192, 1}, // inside the fresh run
		{1300, 2}, // past the run's end: a fresh run
		{0, 5},    // from trial 0, as the sweeps ask
		{0, 16},   // the sweeps' prefix grows in place
	} {
		got := tab.jitRow(sa, row, w.first, w.n)
		if len(got) != w.n {
			t.Fatalf("window %+v: %d draws", w, len(got))
		}
		checkJitWindow(t, sa, row, w.first, got)
		kept = append(kept, got)
		keptFirst = append(keptFirst, w.first)
		held, charged := jitCharge(tab)
		if charged-charged0 != int64(8*(held-held0)) {
			t.Fatalf("window %+v: %d bytes charged for a capacity of %d draws", w, charged-charged0, held-held0)
		}
		if c := &tab.cells[row]; w.first == 1200 && (c.jitStart != 1200 || len(c.jit) != 3) {
			t.Fatalf("first window holds trials %d+%d, want 1200+3", c.jitStart, len(c.jit))
		}
	}
	for i, got := range kept {
		checkJitWindow(t, sa, row, keptFirst[i], got)
	}
}

// TestJitRowConcurrent reads overlapping and disjoint windows of a few
// rows from several goroutines, so every transition races with readers of
// earlier windows; run it under -race. Every window must equal the inline
// draws, and the charge must still match the capacity held.
func TestJitRowConcurrent(t *testing.T) {
	sa := freshSubarray(t, 0x717e0002)
	tab := sa.tab
	held0, charged0 := jitCharge(tab)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := xrand.NewSource(uint64(g) + 1)
			var kept [][]float64
			var keptAt [][2]int
			for i := 0; i < 400; i++ {
				row := 3 + int(src.Uint64()%3)
				first := int(src.Uint64() % 64)
				if i%50 == 0 {
					first += 1000 // force fresh runs now and then
				}
				n := 1 + int(src.Uint64()%8)
				got := tab.jitRow(sa, row, first, n)
				checkJitWindow(t, sa, row, first, got)
				kept = append(kept, got)
				keptAt = append(keptAt, [2]int{row, first})
			}
			for i, got := range kept {
				checkJitWindow(t, sa, keptAt[i][0], keptAt[i][1], got)
			}
		}(g)
	}
	wg.Wait()
	if held, charged := jitCharge(tab); charged-charged0 != int64(8*(held-held0)) {
		t.Fatalf("%d bytes charged for a capacity of %d draws", charged-charged0, held-held0)
	}
}

// TestSettleRaceMatchesDraw sweeps t2 across the latch and wordline
// settling cliffs and checks, for every row and trial, that the race
// rowAsserts settles without a draw is the one the inline draw decides,
// and that both the settled and the drawn branches are taken.
func TestSettleRaceMatchesDraw(t *testing.T) {
	sa := freshSubarray(t, 0x717e0003)
	params := &sa.mod.params
	latchMean := params.LatchMean(32, analog.NominalEnv())
	jmax := math.Abs(params.AssertTransientSigma) * xrand.NormMax
	settled, drawn := 0, 0
	for step := 0; step <= 80; step++ {
		at := timing.APATimings{T1: 1.5, T2: 0.2 + 0.05*float64(step)}
		for r := 0; r < 64; r++ {
			latch := latchMean + params.LatchSettleSigma*sa.tab.latchNorm[r]
			wl := sa.tab.wlThresh[r]
			if settleRace(at.T2, at.Total(), latch, wl, jmax) == raceDrawn {
				drawn++
			} else {
				settled++
			}
			for trial := 0; trial < 32; trial++ {
				jit := params.AssertTransientSigma *
					xrand.Norm(sa.key3(uint64(r), uint64(trial), tagJitter))
				want := at.T2+jit >= latch && at.Total()+jit >= wl
				if got := sa.rowAsserts(r, latchMean, trial, at); got != want {
					t.Fatalf("t2 %.2f row %d trial %d: rowAsserts %v, inline draw %v",
						at.T2, r, trial, got, want)
				}
			}
		}
	}
	if settled == 0 || drawn == 0 {
		t.Fatalf("%d races settled, %d drawn: a branch went untested", settled, drawn)
	}
}
