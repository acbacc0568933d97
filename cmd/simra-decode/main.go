// Command simra-decode explores the hypothetical hierarchical row decoder
// of §7.1: given the two row addresses of an ACT→PRE→ACT sequence, it
// prints the set of simultaneously activated rows (Figs. 13/14).
//
// Usage:
//
//	simra-decode                      # the paper's walkthrough examples
//	simra-decode -rf 127 -rs 128      # a specific APA pair
//	simra-decode -geometry micron1024 -rf 0 -rs 1023
package main

import (
	"flag"
	"fmt"
	"io"

	simra "repro"
	"repro/internal/cli"
)

// options is simra-decode's flag surface.
type options struct {
	Geometry  string `flag:"geometry" usage:"decoder geometry: hynix512, hynix640, micron1024"`
	RowFirst  int    `flag:"rf" usage:"first activated row (RowFirst)"`
	RowSecond int    `flag:"rs" usage:"second activated row (RowSecond)"`
}

// flags binds simra-decode's flag surface to fs and returns the options
// that parsing fills.
func flags(fs *flag.FlagSet) *options {
	opts := &options{Geometry: "hynix512", RowFirst: -1, RowSecond: -1}
	cli.Bind(fs, opts)
	return opts
}

func main() {
	cli.Main("simra-decode", flags, func(w io.Writer, opts *options) (fmt.Stringer, error) {
		return nil, run(w, opts.Geometry, opts.RowFirst, opts.RowSecond)
	})
}

// run writes the activation analysis to w; all output is deterministic
// (no simulation is involved), so the CI e2e job asserts it byte for byte.
func run(w io.Writer, geometry string, rf, rs int) error {
	var cfg simra.DecoderConfig
	switch geometry {
	case "hynix512":
		cfg = simra.DecoderHynix512()
	case "hynix640":
		cfg = simra.DecoderHynix640()
	case "micron1024":
		cfg = simra.DecoderMicron1024()
	default:
		return fmt.Errorf("unknown geometry %q", geometry)
	}

	if rf < 0 || rs < 0 {
		tab, err := simra.DecoderWalkthrough(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}

	dec, err := simra.NewDecoder(cfg)
	if err != nil {
		return err
	}
	rows, err := dec.ActivatedRows(rf, rs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "geometry %s: %d rows, %d predecoder fields\n",
		geometry, dec.Rows(), dec.NumFields())
	fmt.Fprintf(w, "ACT %d → PRE → ACT %d (violated tRP)\n", rf, rs)
	fmt.Fprintf(w, "differing predecoder fields: %d\n", dec.DifferingFields(rf, rs))
	fmt.Fprintf(w, "simultaneously activated rows (%d): %v\n", len(rows), rows)
	return nil
}
