package dram

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/analog"
)

// weakMaskRef is weakMask's per-bit definition, without the word floors:
// bit c is set when u[c] falls below the probability of the bit driven
// into column c.
func weakMaskRef(dst, drive []uint64, u []float64, pOne, pZero float64) {
	clear(dst)
	for c, uc := range u {
		p := pZero
		if drive != nil && drive[c/64]>>uint(c%64)&1 == 1 {
			p = pOne
		}
		if uc < p {
			dst[c/64] |= 1 << uint(c%64)
		}
	}
}

// TestWeakMaskFloorsExact checks the floored weakMask against the per-bit
// reference on real weak rows at widths around the word boundary, for
// probabilities at zero, at the model's low end, at and just past a
// word's floor, at 0.5 and 1, and NaN in either one of pOne/pZero, with
// both a nil and a random drive.
func TestWeakMaskFloorsExact(t *testing.T) {
	nan := math.NaN()
	for _, width := range []int{1, 63, 64, 65, 1024} {
		spec := NewSpec("slots-test", ProfileH, 0x5107)
		spec.Columns = width
		m, err := NewModule(spec, analog.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		sa, err := m.Subarray(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, want := make([]uint64, sa.words), make([]uint64, sa.words)
		skipped := 0
		for _, kind := range []int{rowWeakWR, rowWeakCopy} {
			for row := 0; row < 4; row++ {
				u, floor := sa.weakRow(row, kind)
				if len(u) != width || len(floor) != sa.words {
					t.Fatalf("width %d: row holds %d uniforms and %d floors", width, len(u), len(floor))
				}
				for wi, f := range floor {
					if f != slices.Min(u[wi*64:min(wi*64+64, width)]) {
						t.Fatalf("width %d row %d: floor %d is %v, not its word's least uniform", width, row, wi, f)
					}
				}
				probs := []float64{0, 4e-5, 0.5, 1, floor[0], math.Nextafter(floor[0], 1),
					floor[len(floor)-1], math.Nextafter(floor[len(floor)-1], 1)}
				random := PatternRandom.FillRowVec(uint64(row), 0, width).Words()
				for _, drive := range [][]uint64{nil, random} {
					for _, pOne := range append(probs, nan) {
						for _, pZero := range probs {
							for _, pair := range [][2]float64{{pOne, pZero}, {pZero, pOne}} {
								sa.weakMask(got, drive, u, floor, pair[0], pair[1])
								weakMaskRef(want, drive, u, pair[0], pair[1])
								if !slices.Equal(got, want) {
									t.Fatalf("width %d row %d drive %v p=(%v, %v): mask %x, per-bit %x",
										width, row, drive != nil, pair[0], pair[1], got, want)
								}
								for _, f := range floor {
									if !(f < pair[0]) && !(f < pair[1]) {
										skipped++
									}
								}
							}
						}
					}
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("width %d: no word took the floor skip", width)
		}
	}
}

// TestCellRowConcurrentFirstRead has several instances of one identity
// read every row kind of fresh rows at once; run it under -race. Each
// row is derived once, and every reader gets the same backing array.
func TestCellRowConcurrentFirstRead(t *testing.T) {
	const readers, rows = 8, 4
	SetTableBudget(0)() // evict every set, so this identity's rows start unpublished
	sas := make([]*Subarray, readers)
	for i := range sas {
		sas[i] = freshSubarray(t, 0x5107c0c0)
	}
	_, cells0 := TableDerivations()
	got := make([][rows][rowKinds]*float64, readers)
	var wg sync.WaitGroup
	for i, sa := range sas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := 0; row < rows; row++ {
				for kind := 0; kind < rowKinds; kind++ {
					got[i][row][kind] = &sa.cellRow(row, kind)[0]
				}
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("reader %d got other backing arrays than reader 0", i)
		}
	}
	if _, cells1 := TableDerivations(); cells1-cells0 != rows*rowKinds {
		t.Fatalf("%d first reads derived %d rows, want %d", readers*rows*rowKinds, cells1-cells0, rows*rowKinds)
	}
}
