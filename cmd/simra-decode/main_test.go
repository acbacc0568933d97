package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/goldenfile"
)

// TestGoldenWalkthrough pins the default walkthrough output (no -rf/-rs):
// the exact bytes the CI e2e job asserts after building the binary.
func TestGoldenWalkthrough(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "hynix512", -1, -1); err != nil {
		t.Fatal(err)
	}
	goldenfile.Check(t, "testdata", "walkthrough.golden", buf.String())
}

func TestSpecificAPAPair(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "hynix512", 127, 128); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ACT 127 → PRE → ACT 128") {
		t.Fatalf("missing APA header in:\n%s", out)
	}
	if !strings.Contains(out, "simultaneously activated rows") {
		t.Fatalf("missing activated-row set in:\n%s", out)
	}
}

func TestUnknownGeometry(t *testing.T) {
	if err := run(&bytes.Buffer{}, "tlb", -1, -1); err == nil {
		t.Fatal("unknown geometry accepted")
	}
}

// TestFlagsGolden pins the -h flag surface: every flag name, type, usage
// and default, byte for byte.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("simra-decode", flag.ContinueOnError)
	flags(fs)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	goldenfile.Check(t, "testdata", "flags.golden", b.String())
}
