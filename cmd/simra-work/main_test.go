package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/goldenfile"
	"repro/internal/workload"
)

// goldenOpts is the fixed CLI configuration behind the committed golden:
// all registered workloads across the representative Table-2 fleet plus
// the Samsung controls, on 256-column slices.
func goldenOpts(workers int) options {
	return options{
		workload: "all",
		modules:  "all",
		workers:  workers,
		cols:     256,
		format:   "text",
	}
}

// TestGoldenOutputWorkerInvariant is the acceptance test: simra-work runs
// every registered workload across the Table-2 fleet, its stdout is
// bit-identical for -workers=1 and -workers=8, and matches the committed
// golden file.
func TestGoldenOutputWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := run(&buf, goldenOpts(workers)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	out8 := render(8)
	if out1 != out8 {
		t.Fatal("simra-work output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "simra-work.golden", out1)
}

// TestGoldenCSVWorkerInvariant pins the csv rendering of the same
// fleet-wide run: bit-identical across worker counts and byte-equal to
// the committed golden.
func TestGoldenCSVWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		opts := goldenOpts(workers)
		opts.format = "csv"
		var buf bytes.Buffer
		if err := run(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	if out1 != render(8) {
		t.Fatal("simra-work csv output differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "simra-work.csv.golden", out1)
}

// TestWorkloadSelection exercises the -workload and -format flags.
func TestWorkloadSelection(t *testing.T) {
	opts := goldenOpts(0)
	opts.modules = "representative"
	opts.workload = "bitmap-scan"
	opts.format = "csv"
	opts.cols = 128
	var buf bytes.Buffer
	if err := run(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bitmap-scan") {
		t.Fatalf("CSV output missing selected workload:\n%s", out)
	}
	if strings.Contains(out, "image-filter") {
		t.Fatalf("CSV output contains unselected workload:\n%s", out)
	}

	opts.workload = "no-such"
	if err := run(&bytes.Buffer{}, opts); err == nil {
		t.Fatal("unknown workload must fail")
	}
	opts.workload = "all"
	opts.modules = "bogus"
	if err := run(&bytes.Buffer{}, opts); err == nil {
		t.Fatal("unknown module population must fail")
	}
	opts.modules = "representative"
	opts.format = "json"
	if err := run(&bytes.Buffer{}, opts); err == nil {
		t.Fatal("unknown format must fail")
	}
}

// TestGoldenColumnarWorkerInvariant pins the columnar stream for the
// same fleet-wide run the text golden covers: bit-identical across
// worker counts, byte-equal to the committed golden, and decodable back
// to the exact text and csv goldens.
func TestGoldenColumnarWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		opts := goldenOpts(workers)
		opts.format = "columnar"
		var buf bytes.Buffer
		if err := run(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	if out1 != render(8) {
		t.Fatal("simra-work columnar stream differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "simra-work.colenc.golden", out1)

	tab, err := colenc.Decode([]byte(out1))
	if err != nil {
		t.Fatal(err)
	}
	for format, golden := range map[string]string{"csv": "simra-work.csv.golden", "text": "simra-work.golden"} {
		var b strings.Builder
		if err := charexp.Write(&b, workload.TypedReport(tab), format); err != nil {
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
