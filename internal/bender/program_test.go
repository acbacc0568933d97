package bender

import (
	"testing"

	"repro/internal/timing"
)

// apaIssueTimes is the oracle schedule of one ACT→PRE→ACT sequence on the
// tester's command grid: the issue time (ns) of each command, the first at
// t = 0 and each later one its quantized delay after the previous.
func apaIssueTimes(t timing.APATimings) []float64 {
	pre := timing.Quantize(t.T1)
	return []float64{0, pre, pre + timing.Quantize(t.T2)}
}

func TestProgramDuration(t *testing.T) {
	at := apaIssueTimes(timing.BestCopy())
	jedec := timing.DDR4()
	got := at[len(at)-1] + jedec.TRAS + jedec.TRP
	want := NewLatencyModel().RowClone()
	if got != want {
		t.Fatalf("scheduled RowClone duration %v != latency model RowClone %v", got, want)
	}
}
