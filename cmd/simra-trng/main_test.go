package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/goldenfile"
	"repro/internal/trng"
)

// TestGoldenHexDump pins the CLI's hex output for a fixed seed: the same
// bytes the CI e2e job asserts after building the binary, and the same
// stream the serving layer returns for an identical TRNG request.
func TestGoldenHexDump(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, trng.Options{Bytes: 64, Seed: 2024, Rows: 32}, false); err != nil {
		t.Fatal(err)
	}
	goldenfile.Check(t, "testdata", "simra-trng.golden", buf.String())
}

// TestRawMatchesHex asserts -raw emits the same underlying byte stream.
func TestRawMatchesHex(t *testing.T) {
	var raw bytes.Buffer
	if err := run(&raw, trng.Options{Bytes: 16, Seed: 7, Rows: 16}, true); err != nil {
		t.Fatal(err)
	}
	if raw.Len() != 16 {
		t.Fatalf("raw output is %d bytes; want 16", raw.Len())
	}
	var again bytes.Buffer
	if err := run(&again, trng.Options{Bytes: 16, Seed: 7, Rows: 16}, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), again.Bytes()) {
		t.Fatal("TRNG stream is not deterministic for a fixed seed")
	}
}

func TestInvalidOptions(t *testing.T) {
	if err := run(&bytes.Buffer{}, trng.Options{Bytes: -1, Seed: 1, Rows: 32}, false); err == nil {
		t.Fatal("negative byte count accepted")
	}
	if err := run(&bytes.Buffer{}, trng.Options{Bytes: 8, Seed: 1, Rows: 3}, false); err == nil {
		t.Fatal("non-power-of-two group size accepted")
	}
}

// TestFlagsGolden pins the -h flag surface bound from trng.Options plus
// -raw: every flag name, type, usage and default, byte for byte.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("simra-trng", flag.ContinueOnError)
	flags(fs)
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	goldenfile.Check(t, "testdata", "flags.golden", b.String())
}
