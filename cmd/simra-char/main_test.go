package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/goldenfile"
)

// TestGoldenFigure3CSV pins the CLI's CSV output for the Fig. 3 sweep at
// the default configuration: the exact bytes the CI e2e job asserts after
// building the binary. CSV mode carries no timing lines, so the output is
// fully deterministic.
func TestGoldenFigure3CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "3", false, 0, 0, 0, 0, 0, 200, "csv", 0); err != nil {
		t.Fatal(err)
	}
	goldenfile.Check(t, "testdata", "fig3.csv.golden", buf.String())
}

// TestFigure3CSVWorkerInvariant asserts the CLI bytes are identical for
// sequential and parallel engines.
func TestFigure3CSVWorkerInvariant(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := run(&buf, "3", false, 0, 0, 0, 0, 0, 200, "csv", workers); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render(1) != render(8) {
		t.Fatal("simra-char CSV differs between -workers=1 and -workers=8")
	}
}

// TestGoldenFigure15CSV pins the CLI's CSV output for the Fig. 15 SPICE
// Monte-Carlo at the default 200 sets, for sequential and parallel
// engines: the bytes the lane-interleaved transient kernel must keep.
func TestGoldenFigure15CSV(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		if err := run(&buf, "15", false, 0, 0, 0, 0, 0, 200, "csv", workers); err != nil {
			t.Fatal(err)
		}
		goldenfile.Check(t, "testdata", "fig15.csv.golden", buf.String())
	}
}

// TestStaticTables covers the no-simulation paths: table1 and the decoder
// walkthrough, which must render without timing or engine lines even in
// text mode.
func TestStaticTables(t *testing.T) {
	for _, fig := range []string{"table1", "14", "13"} {
		var buf bytes.Buffer
		if err := run(&buf, fig, false, 0, 0, 0, 0, 0, 200, "text", 0); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		out := buf.String()
		if out == "" {
			t.Fatalf("fig %s: empty output", fig)
		}
		if strings.Contains(out, "(figure") || strings.Contains(out, "(engine:") {
			t.Fatalf("fig %s: static table carries timing/engine lines:\n%s", fig, out)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if err := run(&bytes.Buffer{}, "nope", false, 0, 0, 0, 0, 0, 200, "text", 0); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run(&bytes.Buffer{}, "3", false, 0, 0, 0, 0, 0, 200, "yaml", 0); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestGoldenFigure3Columnar pins the CLI's columnar stream for the
// Fig. 3 sweep: bit-identical across worker counts, byte-equal to the
// committed golden, and decodable back to the csv golden's rows.
func TestGoldenFigure3Columnar(t *testing.T) {
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := run(&buf, "3", false, 0, 0, 0, 0, 0, 200, "columnar", workers); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out1 := render(1)
	if out1 != render(8) {
		t.Fatal("simra-char columnar stream differs between -workers=1 and -workers=8")
	}
	goldenfile.Check(t, "testdata", "fig3.colenc.golden", out1)

	tab, err := colenc.Decode([]byte(out1))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := charexp.Write(&b, charexp.TypedReport{Table: tab, Cell: (*colenc.Column).CellString}, "csv"); err != nil {
		t.Fatal(err)
	}
	if got := b.String() + "\n"; got != readGolden(t, "fig3.csv.golden") {
		t.Fatal("decoded columnar rows drifted from the csv golden")
	}
}

// readGolden loads one committed golden file.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
