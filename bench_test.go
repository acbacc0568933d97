// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableN/BenchmarkFigureN runs the corresponding
// experiment at reduced (but deterministic) scale and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` produces a
// machine-readable paper-vs-measured record (see EXPERIMENTS.md).
package simra_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	simra "repro"
	"repro/internal/charexp"
)

// benchConfig returns the reduced-scale harness configuration shared by
// the figure benchmarks.
func benchConfig() simra.ExperimentConfig {
	fc := simra.DefaultFleetConfig()
	fc.Columns = 256
	cfg := simra.DefaultExperimentConfig()
	cfg.Fleet = simra.FleetRepresentative(fc)
	cfg.Trials = 3
	cfg.GroupsPerSubarray = 4
	cfg.Banks = 1
	return cfg
}

// benchRunner pins the engine to one worker. This matches the pre-engine
// behaviour of these benchmarks exactly: with Banks=1 and one subarray
// per bank, the old per-module sweep pool was clamped to a single worker
// and the module loop was sequential, so the BenchmarkFigureN numbers
// stay comparable across the engine's introduction. The
// BenchmarkFigureN...Parallel variants lift the bound to runtime.NumCPU().
func benchRunner(b *testing.B) *simra.Experiments {
	return benchRunnerWorkers(b, 1)
}

// benchRunnerWorkers returns the shared benchmark runner with the engine
// bounded to the given worker count. Results are identical for every
// count; only wall time differs.
func benchRunnerWorkers(b *testing.B, workers int) *simra.Experiments {
	b.Helper()
	cfg := benchConfig()
	cfg.Engine.Workers = workers
	r, err := simra.NewExperiments(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Population builds the full 18-module / 120-chip fleet.
func BenchmarkTable1Population(b *testing.B) {
	for i := 0; i < b.N; i++ {
		entries := simra.FleetModules(simra.DefaultFleetConfig())
		mods, err := simra.BuildFleet(entries, simra.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if len(mods) != 18 {
			b.Fatal("fleet size")
		}
	}
}

// BenchmarkFigure3Timing sweeps t1/t2 for many-row activation (Fig. 3).
func BenchmarkFigure3Timing(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(3, 3, 32)
		b.ReportMetric(s.Mean*100, "succ32@best%")
	}
}

// BenchmarkFigure4aTemperature sweeps temperature (Fig. 4a).
func BenchmarkFigure4aTemperature(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure4a()
		if err != nil {
			b.Fatal(err)
		}
		m, _ := res.Mean(90, 32)
		b.ReportMetric(m*100, "succ32@90C%")
	}
}

// BenchmarkFigure4bVoltage sweeps VPP (Fig. 4b).
func BenchmarkFigure4bVoltage(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure4b()
		if err != nil {
			b.Fatal(err)
		}
		m, _ := res.Mean(2.1, 32)
		b.ReportMetric(m*100, "succ32@2.1V%")
	}
}

// BenchmarkFigure5Power evaluates the power model (Fig. 5).
func BenchmarkFigure5Power(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Margin32*100, "belowREF%")
	}
}

// BenchmarkFigure6MAJ3Timing sweeps t1/t2 and replication for MAJ3
// (Fig. 6).
func BenchmarkFigure6MAJ3Timing(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(1.5, 3, 32)
		b.ReportMetric(s.Mean*100, "MAJ3@32%")
	}
}

// BenchmarkFigure7DataPatterns characterizes MAJX across data patterns
// (Fig. 7).
func BenchmarkFigure7DataPatterns(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		m5, _ := res.Mean(5, simra.PatternRandom, 32)
		b.ReportMetric(m5*100, "MAJ5rand%")
	}
}

// BenchmarkFigure8MAJTemperature characterizes MAJX vs temperature
// (Fig. 8).
func BenchmarkFigure8MAJTemperature(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		m, _ := res.Mean(3, 90, 32)
		b.ReportMetric(m*100, "MAJ3@90C%")
	}
}

// BenchmarkFigure9MAJVoltage characterizes MAJX vs VPP (Fig. 9).
func BenchmarkFigure9MAJVoltage(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		m, _ := res.Mean(3, 2.1, 32)
		b.ReportMetric(m*100, "MAJ3@2.1V%")
	}
}

// BenchmarkFigure10CopyTiming sweeps t1/t2 for Multi-RowCopy (Fig. 10).
func BenchmarkFigure10CopyTiming(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(36, 3, 31)
		b.ReportMetric(s.Mean*100, "copy31@best%")
	}
}

// BenchmarkFigure11CopyPatterns characterizes Multi-RowCopy data patterns
// (Fig. 11).
func BenchmarkFigure11CopyPatterns(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		m, _ := res.Mean(simra.PatternAll1, 31)
		b.ReportMetric(m*100, "all1s@31%")
	}
}

// BenchmarkFigure12Environment characterizes Multi-RowCopy vs temperature
// and VPP (Fig. 12a/b).
func BenchmarkFigure12Environment(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		ta, err := r.Figure12a()
		if err != nil {
			b.Fatal(err)
		}
		tb, err := r.Figure12b()
		if err != nil {
			b.Fatal(err)
		}
		ma, _ := ta.Mean(90, 31)
		mb, _ := tb.Mean(2.1, 31)
		b.ReportMetric(ma*100, "copy@90C%")
		b.ReportMetric(mb*100, "copy@2.1V%")
	}
}

// BenchmarkFigure13Decoder exercises the hierarchical decoder walkthrough
// (Figs. 13/14): every APA pair of a full subarray.
func BenchmarkFigure13Decoder(b *testing.B) {
	dec, err := simra.NewDecoder(simra.DecoderHynix512())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for rs := 0; rs < 512; rs++ {
			n, err := dec.ActivationCount(127, rs)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		if total == 0 {
			b.Fatal("no activations")
		}
	}
}

// BenchmarkFigure15SpiceMonteCarlo runs the circuit-level Monte-Carlo
// (Fig. 15).
func BenchmarkFigure15SpiceMonteCarlo(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure15(100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Success[4][0.4]*100, "MAJ3@4rows40pv%")
		b.ReportMetric(res.Success[32][0.4]*100, "MAJ3@32rows40pv%")
	}
}

// BenchmarkFigure16Microbenchmarks evaluates the §8.1 case study
// (Fig. 16).
func BenchmarkFigure16Microbenchmarks(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AverageSpeedup("M", 7), "mfrM-MAJ7-x")
		b.ReportMetric(res.AverageSpeedup("H", 9), "mfrH-MAJ9-x")
	}
}

// BenchmarkFigure17ContentDestruction evaluates the §8.2 case study
// (Fig. 17).
func BenchmarkFigure17ContentDestruction(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Speedup(simra.DestructionTechnique{Kind: "mrc", N: 32})
		b.ReportMetric(s, "mrc32-x")
	}
}

// Parallel variants of the heaviest sweeps: the same figures at
// workers = NumCPU. Comparing BenchmarkFigureNXxx to
// BenchmarkFigureNXxxParallel shows the engine's speedup; outputs are
// bit-identical (see internal/charexp's determinism tests).

// BenchmarkFigure3TimingParallel is Fig. 3 at workers = NumCPU.
func BenchmarkFigure3TimingParallel(b *testing.B) {
	r := benchRunnerWorkers(b, runtime.NumCPU())
	for i := 0; i < b.N; i++ {
		res, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(3, 3, 32)
		b.ReportMetric(s.Mean*100, "succ32@best%")
	}
}

// BenchmarkFigure6MAJ3TimingParallel is Fig. 6 at workers = NumCPU.
func BenchmarkFigure6MAJ3TimingParallel(b *testing.B) {
	r := benchRunnerWorkers(b, runtime.NumCPU())
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(1.5, 3, 32)
		b.ReportMetric(s.Mean*100, "MAJ3@32%")
	}
}

// BenchmarkFigure7DataPatternsParallel is Fig. 7 at workers = NumCPU.
func BenchmarkFigure7DataPatternsParallel(b *testing.B) {
	r := benchRunnerWorkers(b, runtime.NumCPU())
	for i := 0; i < b.N; i++ {
		res, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		m5, _ := res.Mean(5, simra.PatternRandom, 32)
		b.ReportMetric(m5*100, "MAJ5rand%")
	}
}

// BenchmarkFigure10CopyTimingParallel is Fig. 10 at workers = NumCPU.
func BenchmarkFigure10CopyTimingParallel(b *testing.B) {
	r := benchRunnerWorkers(b, runtime.NumCPU())
	for i := 0; i < b.N; i++ {
		res, err := r.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := res.Cell(36, 3, 31)
		b.ReportMetric(s.Mean*100, "copy31@best%")
	}
}

// BenchmarkAPAThroughput measures raw simulator performance: APA
// operations per second on a 32-row group (not a paper figure; a harness
// health metric).
func BenchmarkAPAThroughput(b *testing.B) {
	spec := simra.NewSpec("bench-apa", simra.ProfileH, 1)
	spec.Columns = 512
	mod, err := simra.NewModule(spec, simra.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	groups, err := simra.SampleGroups(sa, mod, 32, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := groups[0]
	opts := simra.APAOptions{Timings: simra.BestMAJTimings(), Env: simra.NominalEnv()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Trial = i
		if _, err := sa.APA(g.RF, g.RS, opts); err != nil {
			b.Fatal(err)
		}
		sa.Precharge()
	}
}

// BenchmarkCharSweepOp is one char-sweep op of the end-to-end benchmark
// (perfbench): a fresh runner at a fresh seed every iteration — a
// 64-column representative fleet, 2 trials and 2 groups per subarray in
// 1 bank, the engine on 2 workers — then Figs. 3, 6, 7, 8, 10, 11 and 15
// (20 Monte-Carlo sets), each rendered to CSV.
func BenchmarkCharSweepOp(b *testing.B) {
	fc := simra.DefaultFleetConfig()
	fc.Columns = 64
	cfg := simra.DefaultExperimentConfig()
	cfg.Fleet = simra.FleetRepresentative(fc)
	cfg.Trials, cfg.GroupsPerSubarray, cfg.Banks = 2, 2, 1
	cfg.Engine = simra.EngineConfig{Workers: 2}
	bytes := 0
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		r, err := simra.NewExperiments(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range []string{"3", "6", "7", "8", "10", "11", "15"} {
			out, err := r.RunFigure(id, 20, "csv")
			if err != nil {
				b.Fatal(err)
			}
			bytes += len(out)
		}
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "csv-bytes/op")
}

// BenchmarkWriteReport times the render-and-encode layer on its own: one
// report written per family and format to io.Discard, from results built
// once before the timer starts — the Fig. 3 sweep table, the simra-work
// fleet run, the simra-scan timing grid and the simra-campaign search
// behind the committed goldens.
func BenchmarkWriteReport(b *testing.B) {
	ctx := context.Background()
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	fig3, err := benchRunner(b).Figure3()
	must(err)
	sweep := fig3.Table()
	wcfg, err := simra.ResolveWorkloads(simra.WorkloadOptions{Modules: "all", Columns: 256})
	must(err)
	work, err := simra.RunWorkloads(ctx, wcfg)
	must(err)
	scfg, err := simra.ResolveScenario(simra.ScenarioOptions{Grid: "timing", Columns: 128, Groups: 2, Banks: 1, Trials: 2})
	must(err)
	scan, err := simra.RunScenarios(ctx, scfg)
	must(err)
	ccfg, err := simra.ResolveCampaign(simra.CampaignOptions{Top: 34, Columns: 128})
	must(err)
	camp, err := simra.RunCampaign(ctx, ccfg)
	must(err)
	families := []struct {
		name  string
		write func(w io.Writer, format string) error
	}{
		{"sweep", func(w io.Writer, format string) error { return charexp.Write(w, sweep, format) }},
		{"workload", func(w io.Writer, format string) error { return simra.WriteWorkloadReport(w, work, format) }},
		{"scenario", func(w io.Writer, format string) error { return simra.WriteScenarioReport(w, scan, format) }},
		{"campaign", func(w io.Writer, format string) error { return simra.WriteCampaignReport(w, camp, format) }},
	}
	for _, f := range families {
		for _, format := range []string{"text", "csv", "columnar"} {
			b.Run(f.name+"/"+format, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.write(io.Discard, format); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
