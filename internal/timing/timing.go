// Package timing defines the DDR4 command set, the JEDEC nominal timing
// parameters relevant to this study, and the 1.5 ns command granularity of
// the (simulated) DRAM Bender tester.
//
// All durations are expressed in nanoseconds as float64, mirroring how the
// paper discusses them (t1 = 1.5 ns, tRAS = 36 ns, ...). The tester can only
// issue commands on multiples of Tick; Quantize maps an arbitrary delay to
// the closest issuable one.
package timing

import "fmt"

// Tick is the minimum interval between two consecutive DRAM commands the
// tester can issue, in nanoseconds. The paper's infrastructure issues
// commands at intervals of 1.5 ns (Limitation 2).
const Tick = 1.5

// Command identifies a DDR4 command used in this study.
type Command uint8

// The DDR4 commands exercised by the characterization.
const (
	CmdNOP Command = iota
	CmdACT
	CmdPRE
	CmdWR
	CmdRD
	CmdREF
)

var commandNames = [...]string{
	CmdNOP: "NOP",
	CmdACT: "ACT",
	CmdPRE: "PRE",
	CmdWR:  "WR",
	CmdRD:  "RD",
	CmdREF: "REF",
}

// String returns the JEDEC mnemonic for the command.
func (c Command) String() string {
	if int(c) < len(commandNames) {
		return commandNames[c]
	}
	return fmt.Sprintf("Command(%d)", uint8(c))
}

// Params holds the manufacturer-recommended (JEDEC) timing parameters for a
// DDR4 device. Only the parameters relevant to the APA characterization are
// modeled.
type Params struct {
	TRCD float64 // ACT-to-RD/WR delay (row to column delay), ns
	TRAS float64 // ACT-to-PRE minimum (sense + restore), ns
	TRP  float64 // PRE-to-ACT minimum (precharge), ns
	TWR  float64 // write recovery, ns
	TRFC float64 // refresh cycle time, ns
	TBL  float64 // burst transfer time (BL8 at the module's data rate), ns
	TCCD float64 // column-to-column delay, ns
}

// TRC returns the row cycle time tRC = tRAS + tRP.
func (p Params) TRC() float64 { return p.TRAS + p.TRP }

// DDR4 returns the nominal DDR4-2400-class timing parameters used as the
// reference point throughout the study.
func DDR4() Params {
	return Params{
		TRCD: 13.5,
		TRAS: 36.0, // the paper's Multi-RowCopy best t1
		TRP:  13.5,
		TWR:  15.0,
		TRFC: 350.0, // 4Gb-class tRFC
		TBL:  3.33,  // BL8 @ 2400 MT/s
		TCCD: 5.0,
	}
}

// Validate reports whether all parameters are positive; it returns a
// descriptive error naming the first violating field.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"tRCD", p.TRCD}, {"tRAS", p.TRAS}, {"tRP", p.TRP},
		{"tWR", p.TWR}, {"tRFC", p.TRFC}, {"tBL", p.TBL}, {"tCCD", p.TCCD},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("timing: %s must be positive, got %v", c.name, c.v)
		}
	}
	return nil
}

// Quantize rounds a delay to the nearest positive multiple of Tick. Delays
// at or below zero quantize to one Tick: the tester cannot issue two
// commands in the same cycle.
func Quantize(ns float64) float64 {
	if ns <= Tick {
		return Tick
	}
	n := int(ns/Tick + 0.5)
	return float64(n) * Tick
}

// APATimings describes the two timing delays of an
// ACT(RF) --t1--> PRE --t2--> ACT(RS) command sequence. The paper's PUD
// operations are entirely parameterized by this pair.
type APATimings struct {
	T1 float64 // delay between ACT(RF) and PRE, ns
	T2 float64 // delay between PRE and ACT(RS), ns
}

// ViolatesTRAS reports whether T1 violates the nominal tRAS.
func (a APATimings) ViolatesTRAS(p Params) bool { return a.T1 < p.TRAS }

// ViolatesTRP reports whether T2 violates the nominal tRP.
func (a APATimings) ViolatesTRP(p Params) bool { return a.T2 < p.TRP }

// Violating reports whether the sequence violates either constraint, i.e.
// whether it can trigger multi-row activation at all.
func (a APATimings) Violating(p Params) bool {
	return a.ViolatesTRAS(p) || a.ViolatesTRP(p)
}

// Total returns the time from the first ACT to the second ACT.
func (a APATimings) Total() float64 { return a.T1 + a.T2 }

// Quantized returns the sequence with both delays rounded to the tester
// grid.
func (a APATimings) Quantized() APATimings {
	return APATimings{T1: Quantize(a.T1), T2: Quantize(a.T2)}
}

// String renders the timings the way the paper annotates subplots.
func (a APATimings) String() string {
	return fmt.Sprintf("t1=%.1fns t2=%.1fns", a.T1, a.T2)
}

// Standard sweep axes used by the paper's figures.
var (
	// SweepT1SiMRA is the t1 axis of Fig. 3 and Fig. 6 (rows of subplots).
	SweepT1SiMRA = []float64{1.5, 3.0}
	// SweepT2 is the t2 axis of Figs. 3, 6 and 10 (columns of subplots).
	SweepT2 = []float64{1.5, 3.0, 4.5, 6.0}
	// SweepT1Copy is the t1 axis of Fig. 10: Multi-RowCopy additionally
	// explores sense-and-restore compliant delays.
	SweepT1Copy = []float64{1.5, 18.0, 36.0}
	// SweepTemperature lists the five tested temperature levels in °C.
	SweepTemperature = []float64{50, 60, 70, 80, 90}
	// SweepVPP lists the five tested wordline voltage levels in volts.
	SweepVPP = []float64{2.5, 2.4, 2.3, 2.2, 2.1}
)

// BestSiMRA is the timing pair the paper reports as achieving the highest
// many-row-activation success rate (Obs. 1).
func BestSiMRA() APATimings { return APATimings{T1: 3.0, T2: 3.0} }

// BestMAJ is the timing pair achieving the highest MAJX success rate
// (Obs. 7).
func BestMAJ() APATimings { return APATimings{T1: 1.5, T2: 3.0} }

// BestCopy is the timing pair achieving the highest Multi-RowCopy success
// rate (Obs. 14): a full tRAS before PRE, then a violated tRP.
func BestCopy() APATimings { return APATimings{T1: 36.0, T2: 3.0} }
