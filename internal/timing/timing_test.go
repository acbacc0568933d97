package timing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCommandString(t *testing.T) {
	cases := map[Command]string{
		CmdNOP: "NOP", CmdACT: "ACT", CmdPRE: "PRE",
		CmdWR: "WR", CmdRD: "RD", CmdREF: "REF",
	}
	for cmd, want := range cases {
		if got := cmd.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", cmd, got, want)
		}
	}
	if got := Command(99).String(); got != "Command(99)" {
		t.Errorf("unknown command string = %q", got)
	}
}

func TestDDR4Valid(t *testing.T) {
	if err := DDR4().Validate(); err != nil {
		t.Fatalf("DDR4 params invalid: %v", err)
	}
}

func TestValidateRejectsNonPositive(t *testing.T) {
	p := DDR4()
	p.TRAS = 0
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for tRAS = 0")
	}
	p = DDR4()
	p.TRP = -1
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for negative tRP")
	}
}

func TestTRC(t *testing.T) {
	p := DDR4()
	if got := p.TRC(); got != p.TRAS+p.TRP {
		t.Fatalf("TRC = %v", got)
	}
}

func TestQuantizeGrid(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 1.5}, {-3, 1.5}, {1.5, 1.5}, {1.6, 1.5},
		{2.3, 3.0}, {3.0, 3.0}, {36, 36}, {4.0, 4.5},
	}
	for _, c := range cases {
		if got := Quantize(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizePropertyOnGrid(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) || math.Abs(raw) > 1e6 {
			return true
		}
		q := Quantize(raw)
		if q < Tick {
			return false
		}
		n := q / Tick
		return math.Abs(n-math.Round(n)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAPAViolations(t *testing.T) {
	p := DDR4()
	apa := APATimings{T1: 3, T2: 3}
	if !apa.ViolatesTRAS(p) || !apa.ViolatesTRP(p) || !apa.Violating(p) {
		t.Fatal("3/3 should violate both tRAS and tRP")
	}
	copyTiming := BestCopy()
	if copyTiming.ViolatesTRAS(p) {
		t.Fatal("t1=36 should satisfy tRAS")
	}
	if !copyTiming.ViolatesTRP(p) {
		t.Fatal("t2=3 should violate tRP")
	}
	nominal := APATimings{T1: 36, T2: 13.5}
	if nominal.Violating(p) {
		t.Fatal("nominal timings should not be violating")
	}
}

func TestAPAQuantized(t *testing.T) {
	apa := APATimings{T1: 2.2, T2: 0}
	q := apa.Quantized()
	if q.T1 != 1.5 || q.T2 != 1.5 {
		t.Fatalf("Quantized = %+v", q)
	}
}

func TestAPATotal(t *testing.T) {
	apa := APATimings{T1: 1.5, T2: 3}
	if apa.Total() != 4.5 {
		t.Fatalf("Total = %v", apa.Total())
	}
}

func TestSweepAxesMatchPaper(t *testing.T) {
	if len(SweepT2) != 4 || SweepT2[0] != 1.5 || SweepT2[3] != 6.0 {
		t.Fatalf("SweepT2 = %v", SweepT2)
	}
	if len(SweepT1Copy) != 3 || SweepT1Copy[2] != 36.0 {
		t.Fatalf("SweepT1Copy = %v", SweepT1Copy)
	}
	if len(SweepTemperature) != 5 || SweepTemperature[4] != 90 {
		t.Fatalf("SweepTemperature = %v", SweepTemperature)
	}
	if len(SweepVPP) != 5 || SweepVPP[0] != 2.5 || SweepVPP[4] != 2.1 {
		t.Fatalf("SweepVPP = %v", SweepVPP)
	}
}

func TestBestTimings(t *testing.T) {
	if b := BestSiMRA(); b.T1 != 3.0 || b.T2 != 3.0 {
		t.Fatalf("BestSiMRA = %+v", b)
	}
	if b := BestMAJ(); b.T1 != 1.5 || b.T2 != 3.0 {
		t.Fatalf("BestMAJ = %+v", b)
	}
	if b := BestCopy(); b.T1 != 36.0 || b.T2 != 3.0 {
		t.Fatalf("BestCopy = %+v", b)
	}
	p := DDR4()
	for _, b := range []APATimings{BestSiMRA(), BestMAJ(), BestCopy()} {
		if !b.Violating(p) {
			t.Fatalf("best PUD timing %v must violate a constraint", b)
		}
	}
}

func TestAPAString(t *testing.T) {
	got := APATimings{T1: 1.5, T2: 3}.String()
	if got != "t1=1.5ns t2=3.0ns" {
		t.Fatalf("String = %q", got)
	}
}
