package charexp

import (
	"context"
	"fmt"

	"repro/internal/decoder"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/spice"
	"repro/internal/stats"
)

// TablePopulation renders Table 1/2: the tested module population.
func TablePopulation(entries []fleet.Entry) Table {
	t := Table{
		ID:    "Table1",
		Title: "Tested DDR4 DRAM modules",
		Columns: []string{
			"module", "vendor", "chip", "mfr", "die", "density",
			"freq", "chips", "subarray",
		},
	}
	for _, e := range entries {
		t.Rows = append(t.Rows, []string{
			e.Spec.ID, e.ModuleVendor, e.ChipIdentifier,
			e.Spec.Profile.Manufacturer, e.Spec.DieRev,
			fmt.Sprintf("%dGb", e.Spec.DensityGbit),
			fmt.Sprint(e.Spec.FreqMTps), fmt.Sprint(e.Spec.Chips),
			fmt.Sprint(e.Spec.Profile.Decoder.Rows),
		})
	}
	t.Rows = append(t.Rows, []string{
		"TOTAL", "", "", "", "", "",
		"", fmt.Sprint(fleet.TotalChips(entries)), "",
	})
	return t
}

// DecoderWalkthrough renders the Fig. 13/14 decoder analysis for a
// configuration: the activated-row sets of the paper's two APA examples.
func DecoderWalkthrough(cfg decoder.Config) (Table, error) {
	dec, err := decoder.New(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "Fig14",
		Title:   "Hypothetical row decoder: APA activation walkthrough",
		Columns: []string{"APA", "differing fields", "activated rows"},
	}
	examples := [][2]int{{0, 7}, {0, 1}, {5, 2}, {127, 128}}
	for _, ex := range examples {
		rf, rs := ex[0], ex[1]
		if rs >= dec.Rows() || rf >= dec.Rows() {
			continue
		}
		rows, err := dec.ActivatedRows(rf, rs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("ACT %d → PRE → ACT %d", rf, rs),
			fmt.Sprint(dec.DifferingFields(rf, rs)),
			fmt.Sprintf("%d: %v", len(rows), rows),
		})
	}
	return t, nil
}

// Figure15Result is the SPICE Monte-Carlo sweep of Fig. 15.
type Figure15Result struct {
	// Perturbation[N][pv] summarizes the bitline deviation distribution.
	Perturbation map[int]map[float64]stats.Summary
	// Success[N][pv] is the MAJ3 success rate (N >= 4 only).
	Success map[int]map[float64]float64
}

// Figure15 runs the circuit-level Monte-Carlo analysis of input
// replication (§7.2). Sets is the number of Monte-Carlo samples per cell
// (the paper uses 1000).
func (r *Runner) Figure15(sets int) (Figure15Result, error) {
	// Every (rows, variation) point draws from its own seeded sources, so
	// the points run as one engine run in any order. They are SPICE
	// points, not APA shards, so the runner's shard counters stay out of
	// it.
	mc := spice.NewMonteCarlo(r.cfg.Seed)
	var tasks []engine.Task[spice.Result]
	for _, n := range spice.RowCounts {
		for _, pv := range spice.Variations {
			tasks = append(tasks, func(context.Context) (spice.Result, error) {
				return mc.Run(n, pv, sets)
			})
		}
	}
	results, err := engine.Run(context.Background(), r.cfg.Engine, nil, tasks)
	if err != nil {
		return Figure15Result{}, err
	}
	out := Figure15Result{
		Perturbation: make(map[int]map[float64]stats.Summary),
		Success:      make(map[int]map[float64]float64),
	}
	for _, res := range results {
		n, pv := res.N, res.Variation
		if out.Perturbation[n] == nil {
			out.Perturbation[n] = make(map[float64]stats.Summary)
			if n > 1 {
				out.Success[n] = make(map[float64]float64)
			}
		}
		out.Perturbation[n][pv] = stats.MustSummarize(res.Perturbations)
		if n > 1 {
			out.Success[n][pv] = res.SuccessRate
		}
	}
	return out, nil
}

// Table renders Fig. 15.
func (f Figure15Result) Table() Table {
	t := Table{
		ID:      "Fig15",
		Title:   "SPICE Monte-Carlo: bitline perturbation and MAJ3 success vs process variation",
		Columns: []string{"rows", "variation", "mean pert (V)", "min", "max", "MAJ3 success"},
	}
	for _, n := range sortedKeys(f.Perturbation) {
		for _, pv := range sortedKeys(f.Perturbation[n]) {
			s := f.Perturbation[n][pv]
			success := "-"
			if sr, ok := f.Success[n][pv]; ok {
				success = pct(sr)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprintf("%.0f%%", pv*100),
				fmt.Sprintf("%.4f", s.Mean), fmt.Sprintf("%.4f", s.Min),
				fmt.Sprintf("%.4f", s.Max), success,
			})
		}
	}
	return t
}
