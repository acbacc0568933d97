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
	"os"
	"strings"
	"time"

	simra "repro"
	"repro/internal/charexp"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to reproduce: all, table1, modules, 3, 4a, 4b, 5, 6, 7, 8, 9, 10, 11, 12a, 12b, 14, 15, 16, 17")
		full    = flag.Bool("full", false, "use the full 18-module fleet of Table 1/2 (slow)")
		trials  = flag.Int("trials", 0, "trials per row group (0 = default)")
		groups  = flag.Int("groups", 0, "row groups per subarray (0 = default)")
		banks   = flag.Int("banks", 0, "banks sampled per module (0 = default)")
		cols    = flag.Int("cols", 0, "simulated columns per subarray (0 = default)")
		seed    = flag.Uint64("seed", 0, "experiment seed (0 = default)")
		sets    = flag.Int("sets", 200, "Monte-Carlo samples per Fig. 15 cell")
		format  = flag.String("format", charexp.FormatText, "output format: text, csv, or columnar")
		workers = flag.Int("workers", 0, "parallel sweep shards (0 = GOMAXPROCS, 1 = sequential; results are identical)")
	)
	flag.Parse()

	if err := run(os.Stdout, *fig, *full, *trials, *groups, *banks, *cols, *seed, *sets, *format, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "simra-char:", err)
		os.Exit(1)
	}
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
func run(w io.Writer, fig string, full bool, trials, groups, banks, cols int, seed uint64, sets int, format string, workers int) error {
	cfg := simra.DefaultExperimentConfig()
	fleetCfg := simra.DefaultFleetConfig()
	if cols > 0 {
		fleetCfg.Columns = cols
	} else {
		fleetCfg.Columns = 512
	}
	if full {
		cfg.Fleet = simra.FleetModules(fleetCfg)
	} else {
		cfg.Fleet = simra.FleetRepresentative(fleetCfg)
	}
	if trials > 0 {
		cfg.Trials = trials
	}
	if groups > 0 {
		cfg.GroupsPerSubarray = groups
	}
	if banks > 0 {
		cfg.Banks = banks
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Engine = simra.EngineConfig{Workers: workers}
	if err := charexp.CheckFormat(format); err != nil {
		return err
	}
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
		err := charexp.Write(&b, t, format)
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
			if out, err = r.RunFigure(id, sets, format); err != nil {
				return err
			}
		}
		if format == charexp.FormatColumnar {
			// The columnar stream is binary and self-delimiting: no
			// trailing newline, so the bytes match the server's and the
			// committed *.colenc.golden exactly.
			if _, err := io.WriteString(w, out); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintln(w, out); err != nil {
			return err
		}
		if needsSimulation(id) && format == charexp.FormatText {
			fmt.Fprintf(w, "(figure %s: %s)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if runner != nil && format == charexp.FormatText {
		fmt.Fprintf(w, "(engine: %s)\n", runner.Stats())
	}
	return nil
}
