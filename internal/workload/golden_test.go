package workload

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/goldenfile"
)

// goldenConfig is the fixed fleet configuration behind the committed
// golden: representative fleet plus one Samsung control on 128-column
// slices. Changing anything here (or any layer under it — kernels, analog
// model, probe, seeds) legitimately regenerates the golden via -update.
func goldenConfig() FleetConfig {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	cfg := DefaultFleetConfig()
	cfg.Entries = append(fleet.Representative(fc), fleet.SamsungModules(fc)[:1]...)
	return cfg
}

// TestGoldenFleetReport pins the full rendered fleet report — every
// workload row, digest, and accounting column — and asserts it is
// byte-identical for 1 and 8 workers before comparing against the golden.
// This is the regression anchor for the whole stack: a change anywhere in
// the kernels, electrical model, probe or seeds shows up here first.
func TestGoldenFleetReport(t *testing.T) {
	render := func(workers int) string {
		cfg := goldenConfig()
		cfg.Engine = engine.Config{Workers: workers}
		results, err := RunFleet(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report(results).Render()
	}
	r1 := render(1)
	r8 := render(8)
	if r1 != r8 {
		t.Fatal("rendered report differs between 1 and 8 workers")
	}
	goldenfile.Check(t, "testdata", "fleet_report.golden", r1)
}

// TestGoldenPerWorkload pins each workload's output digest individually on
// one H module, so a drift report names the workload that moved.
func TestGoldenPerWorkload(t *testing.T) {
	cfg := goldenConfig()
	cfg.Entries = cfg.Entries[:1]
	results, err := RunFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		r := r
		t.Run(r.Workload, func(t *testing.T) {
			row := report([]Result{r}).CSV()
			goldenfile.Check(t, "testdata", r.Workload+".golden", row)
		})
	}
}
