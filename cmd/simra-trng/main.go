// Command simra-trng generates true-random bytes from the metastable
// sensing of simultaneous many-row activation (the QUAC-TRNG direction the
// paper's related work points at), von-Neumann-extracted and screened with
// SP 800-90B-style health checks.
//
// Usage:
//
//	simra-trng -bytes 64          # hex-dump 64 random bytes
//	simra-trng -bytes 1024 -raw   # raw binary to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/trng"
)

// flags binds simra-trng's flag surface — the TRNG family's Options and
// the CLI-only -raw — to fs and returns what parsing fills.
func flags(fs *flag.FlagSet) (*trng.Options, *bool) {
	opts := &trng.Options{Bytes: 32, Seed: 0x7e57, Rows: 32}
	cli.Bind(fs, opts)
	return opts, fs.Bool("raw", false, "write raw bytes to stdout instead of hex")
}

func main() {
	opts, raw := flags(flag.CommandLine)
	flag.Parse()

	if err := run(os.Stdout, *opts, *raw); err != nil {
		fmt.Fprintln(os.Stderr, "simra-trng:", err)
		os.Exit(1)
	}
}

// run emits the bytes through the shared generation loop (trng.Generate),
// the same path the serving layer's TRNG endpoint uses. Output on w is
// deterministic for a given (seed, rows) pair.
func run(w io.Writer, opts trng.Options, raw bool) error {
	out, err := trng.Generate(opts)
	if err != nil {
		return err
	}
	if raw {
		_, err := w.Write(out)
		return err
	}
	_, err = io.WriteString(w, trng.FormatHex(out))
	return err
}
