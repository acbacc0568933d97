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

	"repro/internal/cli"
	"repro/internal/trng"
)

// options is simra-trng's flag surface: the TRNG family's Options and
// the CLI-only -raw.
type options struct {
	trng.Options
	Raw bool `flag:"raw" usage:"write raw bytes to stdout instead of hex"`
}

// flags binds simra-trng's flag surface to fs and returns the options
// that parsing fills.
func flags(fs *flag.FlagSet) *options {
	opts := &options{Options: trng.Options{Bytes: 32, Seed: 0x7e57, Rows: 32}}
	cli.Bind(fs, &opts.Options)
	cli.Bind(fs, opts)
	return opts
}

func main() {
	cli.Main("simra-trng", flags, func(w io.Writer, opts *options) (fmt.Stringer, error) {
		return nil, run(w, opts.Options, opts.Raw)
	})
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
