package main

import (
	"bytes"
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
func envelopeOpts(workers int) options {
	return options{
		op:       "activation",
		grid:     "nominal",
		envelope: "t2",
		modules:  "representative",
		workers:  workers,
		cols:     128,
		groups:   2,
		banks:    1,
		trials:   2,
		format:   "text",
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
	opts := func(workers int) options {
		o := envelopeOpts(workers)
		o.envelope = ""
		o.grid = "timing"
		o.format = "csv"
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
		o.envelope = ""
		o.grid = "timing"
		o.format = "columnar"
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
					o.envelope = ""
					o.grid = "timing"
				}
				o.format = tc.format
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
	bad := func(mut func(*options), want string) {
		t.Helper()
		o := envelopeOpts(0)
		mut(&o)
		_, err := run(&bytes.Buffer{}, o)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want substring %q", err, want)
		}
	}
	bad(func(o *options) { o.format = "json" }, "valid: text, csv")
	bad(func(o *options) { o.op = "refresh" }, "valid: activation, maj, copy")
	bad(func(o *options) { o.envelope = "pattern" }, "unknown envelope axis")
	bad(func(o *options) { o.envelope = ""; o.grid = "galactic" }, "unknown grid")
	bad(func(o *options) { o.envelope = ""; o.axes = "t9=1" }, "unknown axis")
	bad(func(o *options) { o.modules = "samsung" }, "valid: representative, full")
}

// TestScanModes smoke-runs the remaining mode combinations.
func TestScanModes(t *testing.T) {
	// MAJ grid over patterns.
	o := envelopeOpts(0)
	o.envelope = ""
	o.op = "maj"
	o.x = 3
	o.grid = "pattern"
	var buf bytes.Buffer
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Random") || !strings.Contains(buf.String(), "0x00/0xFF") {
		t.Fatalf("pattern grid output missing pattern rows:\n%s", buf.String())
	}
	// Aging envelope.
	o = envelopeOpts(0)
	o.envelope = "aging"
	o.target = 0.5
	buf.Reset()
	if _, err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aging boundary") {
		t.Fatalf("aging envelope output malformed:\n%s", buf.String())
	}
}
