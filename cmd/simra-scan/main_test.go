package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/goldenfile"
	"repro/internal/scenario"
)

// envelopeOpts is the fixed CLI configuration behind the committed
// envelope golden: the per-module minimum-viable-t2 search on a reduced
// sampling budget (the same invocation the CI e2e job drives).
func envelopeOpts(workers int) scenario.Options {
	return scenario.Options{
		Op:       "activation",
		Grid:     "nominal",
		Envelope: "t2",
		Modules:  "representative",
		Workers:  workers,
		Columns:  128,
		Groups:   2,
		Banks:    1,
		Trials:   2,
		Format:   "text",
	}
}

// TestEnvelopeGoldenWorkerInvariant is the acceptance test: the adaptive
// envelope search output is bit-identical for -workers=1 and -workers=8
// and matches the committed golden file.
func TestEnvelopeGoldenWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if _, err := run(&buf, envelopeOpts(workers)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	out8 := render(8)
	if out1 != out8 {
		t.Fatal("simra-scan -envelope output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "envelope.golden", out1)
}

// TestGridGoldenWorkerInvariant pins the grid-scan surface the same way.
func TestGridGoldenWorkerInvariant(t *testing.T) {
	opts := func(workers int) scenario.Options {
		o := envelopeOpts(workers)
		o.Envelope = ""
		o.Grid = "timing"
		o.Format = "csv"
		return o
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		if _, err := run(&buf, opts(workers)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	out8 := render(8)
	if out1 != out8 {
		t.Fatal("simra-scan grid output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "grid.csv.golden", out1)
}

// TestGridColumnarGoldenWorkerInvariant pins the columnar stream for the
// same grid scan the csv golden covers: bit-identical across worker
// counts, byte-equal to the committed golden, and decodable back to the
// exact csv and text goldens.
func TestGridColumnarGoldenWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		o := envelopeOpts(workers)
		o.Envelope = ""
		o.Grid = "timing"
		o.Format = "columnar"
		var buf bytes.Buffer
		if _, err := run(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	if out1 != render(8) {
		t.Fatal("simra-scan columnar stream differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "grid.colenc.golden", out1)

	tab, err := colenc.Decode([]byte(out1))
	if err != nil {
		t.Fatal(err)
	}
	decodedMatchesGoldens(t, tab, "grid.csv.golden", "grid.golden")
}

// decodedMatchesGoldens prints a decoded columnar stream as csv and text
// and requires the committed goldens of those formats.
func decodedMatchesGoldens(t *testing.T, tab *colenc.Table, csvGolden, textGolden string) {
	t.Helper()
	for format, golden := range map[string]string{"csv": csvGolden, "text": textGolden} {
		var b strings.Builder
		if err := charexp.Write(&b, scenario.TypedReport(tab), format); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + golden)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Fatalf("decoded columnar table printed as %s drifted from %s", format, golden)
		}
	}
}

// TestFormatGoldensWorkerInvariant pins the remaining mode × format
// pairs — grid text, envelope csv and envelope columnar — so every
// simra-scan rendering is byte-pinned: each is bit-identical across
// worker counts and byte-equal to its committed golden.
func TestFormatGoldensWorkerInvariant(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		envelope bool
		format   string
	}{
		{"grid.golden", false, "text"},
		{"envelope.csv.golden", true, "csv"},
		{"envelope.colenc.golden", true, "columnar"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			render := func(workers int) string {
				o := envelopeOpts(workers)
				if !tc.envelope {
					o.Envelope = ""
					o.Grid = "timing"
				}
				o.Format = tc.format
				var buf bytes.Buffer
				if _, err := run(&buf, o); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			out1 := render(1)
			if out1 != render(8) {
				t.Fatalf("%s: output differs between -workers=1 and -workers=8", tc.golden)
			}
			goldenfile.Check(t, "testdata", tc.golden, out1)
			if tc.format == "columnar" {
				tab, err := colenc.Decode([]byte(out1))
				if err != nil {
					t.Fatal(err)
				}
				decodedMatchesGoldens(t, tab, "envelope.csv.golden", "envelope.golden")
			}
		})
	}
}

// TestFlagValidation exercises the flag surface end to end.
func TestFlagValidation(t *testing.T) {
	bad := func(mut func(*scenario.Options), want string) {
		t.Helper()
		o := envelopeOpts(0)
		mut(&o)
		_, err := run(&bytes.Buffer{}, o)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want substring %q", err, want)
		}
	}
	bad(func(o *scenario.Options) { o.Format = "json" }, "valid: text, csv")
	bad(func(o *scenario.Options) { o.Op = "refresh" }, "valid: activation, maj, copy")
	bad(func(o *scenario.Options) { o.Envelope = "pattern" }, "unknown envelope axis")
	bad(func(o *scenario.Options) { o.Envelope = ""; o.Grid = "galactic" }, "unknown grid")
	bad(func(o *scenario.Options) { o.Envelope = ""; o.Axes = "t9=1" }, "unknown axis")
	bad(func(o *scenario.Options) { o.Modules = "samsung" }, "valid: representative, full")
}

// TestScanModes smoke-runs the remaining mode combinations.
func TestScanModes(t *testing.T) {
	// MAJ grid over patterns.
	o := envelopeOpts(0)
	o.Envelope = ""
	o.Op = "maj"
	o.X = 3
	o.Grid = "pattern"
	var buf bytes.Buffer
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Random") || !strings.Contains(buf.String(), "0x00/0xFF") {
		t.Fatalf("pattern grid output missing pattern rows:\n%s", buf.String())
	}
	// Aging envelope.
	o = envelopeOpts(0)
	o.Envelope = "aging"
	o.Target = 0.5
	buf.Reset()
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aging boundary") {
		t.Fatalf("aging envelope output malformed:\n%s", buf.String())
	}
}

// TestFlagsGolden pins the -h flag surface bound from scenario.Options:
// every flag name, type, usage and default, byte for byte.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("simra-scan", flag.ContinueOnError)
	flags(fs)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	goldenfile.Check(t, "testdata", "flags.golden", b.String())
}
