package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	simra "repro"
	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/bitvec"
	"repro/internal/cache"
	"repro/internal/colenc"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/timing"
	"repro/pkg/simraclient"
)

// The layer ladder calls each layer directly, with inputs shaped like
// the workload's, and records a span per timed batch. It runs after the
// timed windows, in traced runs only.

// perCall times f in batches of at least 5 ms and returns the median
// time per call over 7 batches, in nanoseconds.
func perCall(tr *tracer, name string, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			f()
		}
		if time.Since(t0) >= 5*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 7)
	for b := range per {
		sp := tr.begin("ladder."+name, int64(b), -1)
		t0 := time.Now()
		for k := 0; k < n; k++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
		tr.end(sp)
	}
	return median(per)
}

// ladderKernels times bitvec, dram and core on one group of a module of
// the workload's column count and trial count.
func ladderKernels(tr *tracer, m metricSet, seed uint64) error {
	fc := fleet.DefaultConfig()
	fc.Columns = simCols
	mod, err := dram.NewModule(fleet.Representative(fc)[0].Spec, analog.DefaultParams())
	if err != nil {
		return err
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		return err
	}
	groups, err := bender.SampleGroups(sa, mod, 8, 1, seed)
	if err != nil {
		return err
	}
	g := groups[0]

	vs := make([]bitvec.Vec, 3)
	for k := range vs {
		vs[k] = dram.PatternRandom.FillRowVec(seed, k, simCols)
	}
	dst := bitvec.New(simCols)
	m.addDur("bitvec.majority_ns", perCall(tr, "bitvec.majority", func() { bitvec.Majority(dst, vs) }), time.Nanosecond)
	planes := bitvec.NewPlanes(simTrials, simCols)
	m.addDur("bitvec.planes_reduce_ns", perCall(tr, "bitvec.planes_reduce", func() { planes.ReduceOr(dst) }), time.Nanosecond)

	opts := dram.APAOptions{Timings: timing.BestMAJ(), Env: analog.NominalEnv(), PatternCoupling: dram.PatternRandom.CouplingFactor()}
	var planErr error
	m.addDur("dram.plan_apa_us", perCall(tr, "dram.plan_apa", func() {
		_, planErr = sa.PlanAPA(g.RF, g.RS, simTrials, opts)
	}), time.Microsecond)
	plan, err := sa.PlanAPA(g.RF, g.RS, simTrials, opts)
	if err = firstErr(planErr, err); err != nil {
		return err
	}
	det, meta := bitvec.New(simCols), bitvec.New(simCols)
	m.addDur("dram.share_resolve_us", perCall(tr, "dram.share_resolve", func() {
		sa.ShareResolve(det, meta, plan.Sets[0], plan, opts)
	}), time.Microsecond)

	t, err := core.NewTester(mod, core.WithTrials(simTrials), core.WithSeed(seed))
	if err != nil {
		return err
	}
	var opErr error
	keep := func(_ core.SuccessResult, err error) {
		if err != nil {
			opErr = err
		}
	}
	m.addDur("core.mra_us", perCall(tr, "core.mra", func() {
		keep(t.ManyRowActivation(sa, g, timing.BestSiMRA(), dram.PatternRandom))
	}), time.Microsecond)
	m.addDur("core.maj_us", perCall(tr, "core.maj", func() {
		keep(t.MAJ(sa, g, 3, timing.BestMAJ(), dram.PatternRandom))
	}), time.Microsecond)
	m.addDur("core.copy_us", perCall(tr, "core.copy", func() {
		keep(t.MultiRowCopy(sa, g, timing.BestCopy(), dram.PatternRandom))
	}), time.Microsecond)
	return opErr
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ladderEngine derives the engine counters from the workload's op done
// in the library (libOp, nil when ops compute nothing) and times a run
// of no-op shards.
func ladderEngine(ctx context.Context, tr *tracer, m metricSet, b *bench, wl *workloadDef, untraced window) error {
	noop := make([]engine.Task[struct{}], 16)
	for k := range noop {
		noop[k] = func(context.Context) (struct{}, error) { return struct{}{}, nil }
	}
	var runErr error
	m.addDur("engine.noop_run_us", perCall(tr, "engine.noop_run", func() {
		_, runErr = engine.Run(ctx, engine.Config{Workers: b.workers}, nil, noop)
	}), time.Microsecond)
	if runErr != nil {
		return runErr
	}
	var snap simra.EngineStats
	var walls []float64
	if wl.libOp != nil {
		for k := int64(0); k < 3; k++ {
			sp := tr.begin("ladder.engine.op", k, -1)
			s, err := wl.libOp(ctx, b, k)
			tr.end(sp)
			if err != nil {
				return err
			}
			snap = s
			walls = append(walls, s.Wall.Seconds()*1e3)
		}
	}
	lat := summarize(append([]float64(nil), untraced.lat...))
	busy := 0.0
	if len(walls) > 0 {
		busy = median(walls) / lat.P50
	}
	m.add("engine.activations_per_op", float64(snap.Activations), "count", 0)
	m.add("engine.shards_per_op", float64(snap.ShardsTotal), "count", 0)
	m.add("engine.acts_per_s", float64(snap.Activations)*untraced.throughput(), "1/s", 0)
	m.add("engine.busy_frac", busy, "ratio", len(walls))
	return nil
}

// ladderRender times the renderers and colenc on a result table shaped
// like the workload's.
func ladderRender(tr *tracer, m metricSet, t simra.ExperimentTable) error {
	m.addDur("render.text_us", perCall(tr, "render.text", func() { _ = t.Render() }), time.Microsecond)
	m.addDur("render.csv_us", perCall(tr, "render.csv", func() { _ = t.CSV() }), time.Microsecond)
	var encErr error
	m.addDur("colenc.encode_us", perCall(tr, "colenc.encode", func() { _, encErr = t.Columnar() }), time.Microsecond)
	stream, err := t.Columnar()
	if err = firstErr(encErr, err); err != nil {
		return err
	}
	var pageErr error
	m.addDur("colenc.page_us", perCall(tr, "colenc.page", func() {
		_, _, pageErr = colenc.Page([]byte(stream), 0, pageRows)
	}), time.Microsecond)
	return pageErr
}

// ladderCache times a result-cache hit and a miss that inserts an entry
// of the workload's response size into a cache of serve-cold's budget,
// which evicts once full.
func ladderCache(tr *tracer, m metricSet, size int64) {
	c := cache.New(serveCacheBytes)
	hot := cache.NewHasher().Str("hot").Sum()
	val := make([]byte, size)
	compute := func() (any, int64, error) { return val, size, nil }
	_, _ = c.Do(hot, compute)
	m.addDur("cache.hit_us", perCall(tr, "cache.hit", func() { _, _ = c.Do(hot, compute) }), time.Microsecond)
	keys := make([]cache.Key, 1<<14)
	for k := range keys {
		keys[k] = cache.NewHasher().Int(k).Sum()
	}
	n := 0
	m.addDur("cache.miss_insert_us", perCall(tr, "cache.miss_insert", func() {
		_, _ = c.Do(keys[n%len(keys)], compute)
		n++
	}), time.Microsecond)
}

// ladderServer times a cache-hit request shaped like the workload's
// through the handler alone (httptest, no TCP) and over loopback.
func ladderServer(ctx context.Context, tr *tracer, m metricSet, b *bench, path string, body any) error {
	ls, err := startServer(simra.ServeConfig{MaxInflight: b.workers, Workers: b.workers})
	if err != nil {
		return err
	}
	defer ls.close()
	if _, err := ls.post(ctx, path, body); err != nil {
		return err
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	h := ls.srv.Handler()
	var hd, ld []float64
	for k := 0; k < 300; k++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		sp := tr.begin("ladder.server.handler", int64(k), -1)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		hd = append(hd, time.Since(t0).Seconds()*1e6)
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d", rec.Code)
		}
		sp = tr.begin("ladder.server.loopback", int64(k), -1)
		t0 = time.Now()
		resp, err := ls.hc.Post(ls.base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ld = append(ld, time.Since(t0).Seconds()*1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loopback: status %d", resp.StatusCode)
		}
	}
	m.add("server.handler_us", median(hd), "us", len(hd))
	m.add("server.http_overhead_us", median(ld)-median(hd), "us", len(ld))
	return nil
}

// ladderJobs runs a few small jobs through a two-group server, for the
// job-tier timings of workloads whose ops do not use the job tier.
func ladderJobs(ctx context.Context, tr *tracer, m metricSet, b *bench) error {
	ls, err := startServer(jobServerConfig(b.workers))
	if err != nil {
		return err
	}
	defer ls.close()
	var jts []jobTiming
	for k := int64(0); k < 8; k++ {
		q := workloadRequest(deriveSeed(b.seed, streamLadder, k), "text")
		root := tr.begin("ladder.jobs.run", k, -1)
		_, jt, err := runJob(ctx, tr, ls.cl, simraclient.JobRequest{Kind: "workload", Workload: &q}, k, root)
		tr.end(root)
		if err != nil {
			return err
		}
		jts = append(jts, jt)
	}
	jobMetrics(m, jts)
	return warmpoolMetric(m, ls)
}
