package dram

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// Pattern identifies a data pattern used to fill DRAM rows in the
// characterization experiments (§3.1 "Data Patterns").
type Pattern uint8

// The tested data patterns. For the paired fixed patterns the row's parity
// (even/odd position among the filled rows) selects which byte of the pair
// fills the row, mirroring the paper's "each activated row either with ..."
// methodology. Random fills every row with a distinct uniformly random
// pattern derived from the experiment seed.
const (
	PatternRandom Pattern = iota
	Pattern00FF
	PatternAA55
	PatternCC33
	Pattern6699
	PatternAll0
	PatternAll1
	// PatternSplit is the adversarial margin-1 composition used by the
	// case-study throughput measurements (§8.1): every column's majority
	// is decided by a single vote, which is what computation workloads
	// (AND gates, carry chains) exercise. Operand rows alternate between
	// a column-checkerboard and its complement, so exactly ⌈X/2⌉ of any
	// odd X operands agree in every column, in alternating directions.
	PatternSplit
)

// MAJPatterns lists the five data patterns of the MAJX characterization
// (Fig. 7), in the paper's order.
var MAJPatterns = []Pattern{Pattern00FF, PatternAA55, PatternCC33, Pattern6699, PatternRandom}

// CopyPatterns lists the three data patterns of the Multi-RowCopy
// characterization (Fig. 11).
var CopyPatterns = []Pattern{PatternAll0, PatternAll1, PatternRandom}

var patternNames = map[Pattern]string{
	PatternRandom: "Random",
	Pattern00FF:   "0x00/0xFF",
	PatternAA55:   "0xAA/0x55",
	PatternCC33:   "0xCC/0x33",
	Pattern6699:   "0x66/0x99",
	PatternAll0:   "All 0s",
	PatternAll1:   "All 1s",
	PatternSplit:  "Split (margin-1)",
}

// String returns the paper's label for the pattern.
func (p Pattern) String() string {
	if s, ok := patternNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// bytePair returns the two alternating fill bytes of a fixed pattern.
func (p Pattern) bytePair() (byte, byte, bool) {
	switch p {
	case Pattern00FF:
		return 0x00, 0xFF, true
	case PatternAA55:
		return 0xAA, 0x55, true
	case PatternCC33:
		return 0xCC, 0x33, true
	case Pattern6699:
		return 0x66, 0x99, true
	case PatternAll0:
		return 0x00, 0x00, true
	case PatternAll1:
		return 0xFF, 0xFF, true
	default:
		return 0, 0, false
	}
}

// Bit returns the bit the pattern stores at (rowOrdinal, col), where
// rowOrdinal is the row's position among the rows being filled and seed
// feeds the per-row choices. For paired fixed patterns, each filled row is
// given one byte of the pair ("we fill each activated row either with all
// 0x00 or all 0xFF", §3.1), chosen by a seeded per-row coin; Random fills
// each row with a distinct uniformly random pattern.
func (p Pattern) Bit(seed uint64, rowOrdinal, col int) bool {
	if p == PatternSplit {
		return (rowOrdinal%2 == 0) != (col%2 == 1)
	}
	if b0, b1, ok := p.bytePair(); ok {
		b := b0
		if b0 != b1 && xrand.Hash(seed, uint64(rowOrdinal), 0x77c)&1 == 1 {
			b = b1
		}
		return (b>>(7-uint(col%8)))&1 == 1
	}
	// Random: a distinct uniform pattern per row.
	return xrand.Hash(seed, uint64(rowOrdinal), uint64(col), 0x9a7)&1 == 1
}

// FillRowVec materializes the pattern for one row as a packed vector.
// Fixed byte-pair patterns and the split checkerboard are periodic, so
// they fill whole 64-column words at a time; only Random hashes per
// column (each of its bits is an independent draw). Bit-for-bit equal to
// Bit over every column.
func (p Pattern) FillRowVec(seed uint64, rowOrdinal, cols int) bitvec.Vec {
	out := bitvec.New(cols)
	p.FillRowInto(out, seed, rowOrdinal)
	return out
}

// FillRowInto is the allocation-free form of FillRowVec: it fills a
// caller-owned vector (typically from a shard arena) with the same bits.
func (p Pattern) FillRowInto(out bitvec.Vec, seed uint64, rowOrdinal int) {
	if p == PatternSplit {
		// Column checkerboard: even rows store 1s on even columns, odd
		// rows the complement.
		if rowOrdinal%2 == 0 {
			out.FillWordPattern(0x5555555555555555)
		} else {
			out.FillWordPattern(0xaaaaaaaaaaaaaaaa)
		}
		return
	}
	if b0, b1, ok := p.bytePair(); ok {
		b := b0
		if b0 != b1 && xrand.Hash(seed, uint64(rowOrdinal), 0x77c)&1 == 1 {
			b = b1
		}
		out.FillByteMSB(b)
		return
	}
	// Random: a distinct uniform pattern per row.
	rowChain := xrand.Begin().Mix(seed).Mix(uint64(rowOrdinal))
	out.FillPattern(func(c int) bool {
		return rowChain.Mix(uint64(c)).Mix(0x9a7).Sum()&1 == 1
	})
}

// FillRow materializes the pattern for one row across cols columns.
func (p Pattern) FillRow(seed uint64, rowOrdinal, cols int) []bool {
	return p.FillRowVec(seed, rowOrdinal, cols).Bools()
}

// CouplingFactor returns the relative bitline-to-bitline coupling noise the
// pattern induces: 1 for fully random data (neighbouring bitlines swing
// independently), small values for structured patterns whose neighbour
// transitions are deterministic and largely common-mode. This is the
// mechanism behind Obs. 9 (random data significantly lowers MAJX success)
// and Obs. 16 (data pattern barely matters for Multi-RowCopy, whose
// margins dwarf the coupling noise).
func (p Pattern) CouplingFactor() float64 {
	switch p {
	case PatternRandom:
		return 1.0
	case PatternAA55:
		return 0.15
	case PatternCC33:
		return 0.12
	case Pattern6699:
		return 0.13
	case Pattern00FF:
		return 0.05
	case PatternAll0, PatternAll1:
		return 0.02
	case PatternSplit:
		return 0.10 // checkerboard-like deterministic neighbour transitions
	default:
		return 1.0
	}
}

// Invert returns the row bits flipped; used by experiments that need a
// pattern guaranteed to differ from the initialized one (§3.2 writes "a
// different data pattern from the predefined data pattern").
func Invert(bits []bool) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = !b
	}
	return out
}
