package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"

	simra "repro"
)

// digestSeed keys the output digests the timed ops record for the
// output check; digests are compared only within one process.
var digestSeed = maphash.MakeSeed()

func digestString(s string) uint64 { return maphash.String(digestSeed, s) }

// rec is one timed op's output digest, kept for the output check.
type rec struct {
	i      int64
	digest uint64
}

// traced runs f inside a span.
func traced[T any](tr *tracer, name string, op int64, parent int, f func() (T, error)) (T, error) {
	id := tr.begin(name, op, parent)
	defer tr.end(id)
	return f()
}

// figSpan names the span of one figure after the layer that computes it.
func figSpan(id string) string {
	if id == "15" {
		return "spice.fig15"
	}
	return "charexp.fig" + id
}

// charOut is the outcome of one pass over the char-sweep figures.
type charOut struct {
	digest uint64
	stats  simra.EngineStats
	fig6   simra.Figure6Result
	fig7   simra.Figure7Result
	fig8   simra.FigureMAJEnvResult
	fig11  simra.Figure11Result
}

// charPass runs one char-sweep op: a fresh runner and one pass over
// charFigures, each figure in its own span. The digest covers every
// figure's CSV rendering.
func charPass(tr *tracer, op int64, parent int, cfg simra.ExperimentConfig) (charOut, error) {
	var out charOut
	r, err := traced(tr, "charexp.NewExperiments", op, parent, func() (*simra.Experiments, error) {
		return simra.NewExperiments(cfg)
	})
	if err != nil {
		return out, err
	}
	tables := make([]simra.ExperimentTable, 0, len(charFigures))
	add := func(t simra.ExperimentTable, err error) error {
		tables = append(tables, t)
		return err
	}
	for _, id := range charFigures {
		sp := tr.begin(figSpan(id), op, parent)
		switch id {
		case "3":
			var f simra.Figure3Result
			f, err = r.Figure3()
			err = add(f.Table(), err)
		case "6":
			out.fig6, err = r.Figure6()
			err = add(out.fig6.Table(), err)
		case "7":
			out.fig7, err = r.Figure7()
			err = add(out.fig7.Table(), err)
		case "8":
			out.fig8, err = r.Figure8()
			err = add(out.fig8.Table(), err)
		case "10":
			var f simra.Figure10Result
			f, err = r.Figure10()
			err = add(f.Table(), err)
		case "11":
			out.fig11, err = r.Figure11()
			err = add(out.fig11.Table(), err)
		case "15":
			var f simra.Figure15Result
			f, err = r.Figure15(fig15Sets)
			err = add(f.Table(), err)
		}
		tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("figure %s: %w", id, err)
		}
	}
	sp := tr.begin("render.csv", op, parent)
	var h maphash.Hash
	h.SetSeed(digestSeed)
	for _, t := range tables {
		h.WriteString(t.CSV())
	}
	tr.end(sp)
	out.digest = h.Sum64()
	out.stats = r.Stats()
	return out, nil
}

// charSweep is the char-sweep workload: the characterization library
// called directly, one caller, the engine on every core.
type charSweep struct {
	b    *bench
	recs []rec // in op order
}

func setupCharSweep(ctx context.Context, b *bench, rep int) (session, error) {
	// The warm-up op builds the process-wide table registries.
	if _, err := charPass(nil, -1, -1, charConfig(deriveSeed(b.seed, streamWarm, int64(rep)), b.workers)); err != nil {
		return nil, err
	}
	return &charSweep{b: b}, nil
}

func (s *charSweep) op(ctx context.Context, tr *tracer, i int64) error {
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	out, err := charPass(tr, i, root, charConfig(deriveSeed(s.b.seed, streamOp, i), s.b.workers))
	if err != nil {
		return err
	}
	s.recs = append(s.recs, rec{i, out.digest})
	return nil
}

// goldenPath is the committed Fig. 3 CSV golden, relative to the
// checkout root the benchmark runs from.
var goldenPath = filepath.Join("cmd", "simra-char", "testdata", "fig3.csv.golden")

// checkOps is how many of the first timed char-sweep ops the output
// check re-runs.
const checkOps = 3

// check re-runs the first checkOps ops on a sequential engine, which
// must reproduce the parallel run's bytes, and renders Fig. 3 at the
// golden configuration, which must equal the committed golden.
func (s *charSweep) check(ctx context.Context) (checked, bad int64, err error) {
	for _, r := range s.recs {
		if r.i >= checkOps {
			break
		}
		out, err := charPass(nil, r.i, -1, charConfig(deriveSeed(s.b.seed, streamOp, r.i), 1))
		if err != nil {
			return checked, bad, err
		}
		checked++
		if out.digest != r.digest {
			bad++
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return checked, bad, fmt.Errorf("read golden: %w", err)
	}
	cfg := gapConfig(s.b.workers)
	r, err := simra.NewExperiments(cfg)
	if err != nil {
		return checked, bad, err
	}
	got, err := r.RunFigure("3", 200, "csv")
	if err != nil {
		return checked, bad, err
	}
	checked++
	if got+"\n" != string(golden) {
		bad++
	}
	return checked, bad, nil
}

func (s *charSweep) counters(metricSet, int64) error { return nil }

func (s *charSweep) close() {}
