// Command simra-char runs the characterization experiments and prints the
// paper-style tables for every figure.
//
// Usage:
//
//	simra-char -fig all            # everything (reduced-scale defaults)
//	simra-char -fig 7 -trials 8    # Fig. 7 with more trials
//	simra-char -fig table1 -full   # the full 18-module population
//	simra-char -fig 14             # decoder walkthrough (no simulation)
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	simra "repro"
	"repro/internal/charexp"
	"repro/internal/cli"
)

// flags binds simra-char's flag surface, the sweep family's Options, to
// fs and returns the options that parsing fills.
func flags(fs *flag.FlagSet) *charexp.Options {
	opts := &charexp.Options{Figure: "all", Sets: 200, Format: charexp.FormatText}
	cli.Bind(fs, opts)
	return opts
}

func main() {
	cli.Main("simra-char", flags, func(w io.Writer, opts *charexp.Options) (fmt.Stringer, error) {
		return nil, run(w, *opts)
	})
}

// needsSimulation reports whether a figure id executes sweeps (and so
// deserves a timing line), as opposed to the static tables.
func needsSimulation(id string) bool {
	return id != "table1" && id != "14"
}

// run renders the selected figures to w through the shared
// charexp rendering path (simra.Experiments.RunFigure), the same one the
// serving layer uses — so for a fixed configuration the table bytes here
// and in a simra-serve response are identical. Timing lines are printed
// only in text format; CSV output is fully deterministic.
func run(w io.Writer, opts charexp.Options) error {
	cfg := opts.Config()
	if err := charexp.CheckFormat(opts.Format); err != nil {
		return err
	}
	fig := opts.Figure
	if fig != "all" {
		id, err := charexp.CheckFigure(fig)
		if err != nil {
			return fmt.Errorf("unknown figure %q; valid: all, %s",
				fig, strings.Join(simra.ExperimentFigureIDs(), ", "))
		}
		fig = id
	}

	// The fleet is only instantiated when a figure actually simulates:
	// the static tables (table1, the decoder walkthrough) render from the
	// entry metadata alone.
	var runner *simra.Experiments
	getRunner := func() (*simra.Experiments, error) {
		if runner != nil {
			return runner, nil
		}
		r, err := simra.NewExperiments(cfg)
		if err != nil {
			return nil, err
		}
		runner = r
		return runner, nil
	}
	render := func(t simra.ExperimentTable) (string, error) {
		var b strings.Builder
		err := charexp.Write(&b, t, opts.Format)
		return b.String(), err
	}

	for _, id := range simra.ExperimentFigureIDs() {
		if fig != "all" && fig != id {
			continue
		}
		var out string
		start := time.Now()
		switch id {
		case "table1":
			var err error
			if out, err = render(simra.PopulationTable(cfg.Fleet)); err != nil {
				return err
			}
		case "14":
			tab, err := simra.DecoderWalkthrough(simra.DecoderHynix512())
			if err != nil {
				return err
			}
			if out, err = render(tab); err != nil {
				return err
			}
		default:
			r, err := getRunner()
			if err != nil {
				return err
			}
			if out, err = r.RunFigure(id, opts.Sets, opts.Format); err != nil {
				return err
			}
		}
		if opts.Format == charexp.FormatColumnar {
			// The columnar stream is binary and self-delimiting: no
			// trailing newline, so the bytes match the server's and the
			// committed *.colenc.golden exactly.
			if _, err := io.WriteString(w, out); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintln(w, out); err != nil {
			return err
		}
		if needsSimulation(id) && opts.Format == charexp.FormatText {
			fmt.Fprintf(w, "(figure %s: %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if runner != nil && opts.Format == charexp.FormatText {
		fmt.Fprintf(w, "(engine: %s)\n", runner.Stats())
	}
	return nil
}
