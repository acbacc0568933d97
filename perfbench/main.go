// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the public library, server, SDK and job
// tier for a fixed time, checks every output it samples against the
// library's own rendering, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run and the layer
// ladder) with units and sample counts. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload char-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	simra "repro"
	"repro/internal/engine"
)

// bench is one benchmark process's settings.
type bench struct {
	seed uint64
	// workers is GOMAXPROCS and the engine, server in-flight and job
	// workers: min(nproc, 2).
	workers int
}

// session is one set-up instance of a workload.
type session interface {
	// op runs timed op i; tr is nil in untraced windows.
	op(ctx context.Context, tr *tracer, i int64) error
	// check compares recorded outputs with the library's rendering of
	// the same inputs, outside the timed window.
	check(ctx context.Context) (checked, bad int64, err error)
	// counters adds the layer counters the workload's own run exposes.
	counters(m metricSet, ops int64) error
	close()
}

// workloadDef is one named workload.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, b *bench, rep int) (session, error)
	// libOp is one op's computation done in the library with a fresh
	// engine accumulator, for the engine counters (nil: ops compute
	// nothing).
	libOp func(ctx context.Context, b *bench, k int64) (simra.EngineStats, error)
	// table is a result table shaped like the workload's outputs.
	table func(b *bench) (simra.ExperimentTable, error)
	// request is a request shaped like the workload's, for the handler
	// step of the ladder.
	request func(b *bench) (path string, body any)
}

var workloads = []*workloadDef{
	{
		name: "char-sweep", setup: setupCharSweep,
		libOp: func(ctx context.Context, b *bench, k int64) (simra.EngineStats, error) {
			o, err := charPass(nil, k, -1, charConfig(deriveSeed(b.seed, streamLadder, k), b.workers))
			return o.stats, err
		},
		table: func(b *bench) (simra.ExperimentTable, error) {
			r, err := simra.NewExperiments(charConfig(b.seed, b.workers))
			if err != nil {
				return simra.ExperimentTable{}, err
			}
			f, err := r.Figure3()
			return f.Table(), err
		},
		request: func(b *bench) (string, any) {
			return "/v1/sweep", sweepRequest("3", deriveSeed(b.seed, streamLadder, 0), "csv")
		},
	},
	{
		name: "serve-cold", setup: setupServeCold,
		libOp: func(ctx context.Context, b *bench, k int64) (simra.EngineStats, error) {
			q := coldRequest(b.seed, k)
			st := new(engine.Stats)
			r, err := sweepRunner(q, b.workers, st)
			if err == nil {
				_, err = r.RunFigure(q.Figure, q.Sets, q.Format)
			}
			return st.Snapshot(), err
		},
		table:   sweepTable,
		request: func(b *bench) (string, any) { return "/v1/sweep", coldRequest(b.seed, 0) },
	},
	{
		name: "serve-warm", setup: setupServeWarm,
		table: sweepTable,
		request: func(b *bench) (string, any) {
			return "/v1/sweep", sweepRequest(coldFigure, deriveSeed(b.seed, streamHot, 0), "csv")
		},
	},
	{
		name: "jobs-fleet", setup: setupJobsFleet,
		libOp: func(ctx context.Context, b *bench, k int64) (simra.EngineStats, error) {
			q := jobRequest(b.seed, k).Workload
			cfg, err := simra.ResolveWorkloads(simra.WorkloadOptions{
				Workloads: q.Workloads, Modules: q.Modules, Workers: b.workers, Columns: q.Columns, Seed: q.Seed,
			})
			if err != nil {
				return simra.EngineStats{}, err
			}
			cfg.Stats = new(engine.Stats)
			_, err = simra.RunWorkloads(ctx, cfg)
			return cfg.Stats.Snapshot(), err
		},
		table: func(b *bench) (simra.ExperimentTable, error) {
			q := jobRequest(b.seed, 0).Workload
			cfg, err := simra.ResolveWorkloads(simra.WorkloadOptions{
				Workloads: q.Workloads, Modules: q.Modules, Workers: b.workers, Columns: q.Columns, Seed: q.Seed,
			})
			if err != nil {
				return simra.ExperimentTable{}, err
			}
			res, err := simra.RunWorkloads(context.Background(), cfg)
			return simra.WorkloadReport(res), err
		},
		request: func(b *bench) (string, any) { return "/v1/workload", jobRequest(b.seed, 0).Workload },
	},
}

// sweepTable is the serve workloads' result table: the sweep figure.
func sweepTable(b *bench) (simra.ExperimentTable, error) {
	r, err := sweepRunner(sweepRequest(coldFigure, b.seed, "csv"), b.workers, nil)
	if err != nil {
		return simra.ExperimentTable{}, err
	}
	f, err := r.Figure11()
	return f.Table(), err
}

// The metric names, in BENCHMARK.json order.
var (
	endToEnd = []string{
		"throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
		"setup_s", "retained_heap_mb", "paper_gap_pp",
	}
	perLayer = []string{
		"bitvec.majority_ns", "bitvec.planes_reduce_ns",
		"dram.plan_apa_us", "dram.share_resolve_us",
		"core.mra_us", "core.maj_us", "core.copy_us",
		"engine.activations_per_op", "engine.acts_per_s", "engine.busy_frac",
		"engine.noop_run_us", "engine.shards_per_op",
		"charexp.fig3_ms", "charexp.fig6_ms", "charexp.fig7_ms", "charexp.fig8_ms",
		"charexp.fig10_ms", "charexp.fig11_ms", "spice.fig15_ms",
		"cache.hit_ratio", "cache.hit_us", "cache.miss_insert_us",
		"cache.evictions_per_op", "cache.resident_mb",
		"colenc.encode_us", "colenc.page_us", "render.text_us", "render.csv_us",
		"server.handler_us", "server.http_overhead_us",
		"jobs.queue_ms", "jobs.exec_ms", "jobs.notify_ms", "jobs.warmpool_hit_ratio",
		"cluster.dispatches_per_op", "cluster.fallbacks",
		"proc.cpu_ms_per_op", "proc.alloc_kb_per_op", "proc.gc_cpu_frac",
		"trace.overhead_pct",
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value (0: a single reading)
}

// metricSet collects named metrics.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, n: n}
}

func (m metricSet) has(name string) bool { _, ok := m[name]; return ok }

// addDur adds a duration given in nanoseconds, in the given unit (ns,
// us or ms).
func (m metricSet) addDur(name string, ns float64, unit time.Duration) {
	u := map[time.Duration]string{time.Nanosecond: "ns", time.Microsecond: "us", time.Millisecond: "ms"}[unit]
	m.add(name, ns/float64(unit), u, 0)
}

// pick returns the metrics named in names, failing if one is missing or
// not a finite number.
func (m metricSet) pick(names []string) (metricSet, error) {
	out := metricSet{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.Value)
		}
		out[n] = v
	}
	return out, nil
}

// setupReps is how many times an untraced run sets the workload up; it
// reports the median, which leaves out the first set-up's one-off
// process-wide work.
const setupReps = 7

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: char-sweep, serve-cold, serve-warm or jobs-fleet")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "timed window length in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced window and the layer ladder and prints per-layer metrics")
	)
	flag.Parse()
	var wl *workloadDef
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(goldenPath); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	runtime.GOMAXPROCS(workers)
	b := &bench{seed: *seed, workers: workers}
	info := map[string]any{
		"workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": workers, "go": runtime.Version(),
		"loop": "closed", "clients": 1, "engine_workers": workers,
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Printf("# run %s\n", line)

	ctx := context.Background()
	reps := setupReps
	if *trace == 1 {
		reps = 1
	}
	var (
		sess   session
		setups []float64
	)
	for rep := 0; rep < reps; rep++ {
		if sess != nil {
			sess.close()
		}
		// Each set-up starts from a collected heap, as the window does.
		runtime.GC()
		t0 := time.Now()
		s, err := wl.setup(ctx, b, rep)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sess = s
	}
	defer sess.close()

	var next int64
	opf := func(tr *tracer) opFunc {
		return func(ctx context.Context, i int64) error { return sess.op(ctx, tr, i) }
	}
	dur := time.Duration(*seconds) * time.Second
	m := metricSet{}
	var windows []window
	if *trace == 0 {
		w := closedLoop(ctx, dur, minSamples(0.9, 10), &next, opf(nil))
		windows = append(windows, w)
		heap := retainedHeapMB()
		lat := summarize(w.lat)
		m.add("throughput_ops_s", w.throughput(), "1/s", lat.N)
		m.add("latency_p50_ms", lat.P50, "ms", lat.N)
		m.add("latency_p90_ms", lat.P90, "ms", lat.N)
		m.add("setup_s", median(setups), "s", len(setups))
		fmt.Printf("# set-ups (s):")
		for _, s := range setups {
			fmt.Printf(" %.4f", s)
		}
		fmt.Println()
		m.add("retained_heap_mb", heap, "MiB", 0)
		fmt.Printf("# latency samples=%d beyond_p90=%d", lat.N, lat.Beyond90)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			fmt.Printf(" p%g=%.3f", 100*p, percentile(w.lat, p))
		}
		fmt.Println()
		gap, sim, err := paperGap(workers)
		if err != nil {
			return fmt.Errorf("paper gap: %w", err)
		}
		m.add("paper_gap_pp", gap, "pp", len(headlines))
		for k, h := range headlines {
			fmt.Printf("# paper %-20s sim %8.3f pp  paper %6.2f pp\n", h.name, sim[k], h.paper)
		}
	} else {
		// Untraced and traced quarters alternate, so drift within the
		// run does not bias the tracing overhead.
		tr := newTracer()
		var wu, wt window
		for k := 0; k < 2; k++ {
			wu = wu.join(closedLoop(ctx, dur/4, 0, &next, opf(nil)))
			wt = wt.join(closedLoop(ctx, dur/4, 0, &next, opf(tr)))
		}
		windows = append(windows, wu, wt)
		if err := layers(ctx, b, wl, sess, m, tr, wu, wt); err != nil {
			return fmt.Errorf("layer ladder: %w", err)
		}
		lts := selfTimes(tr.spans)
		printSelfTimes(os.Stdout, lts)
		path, err := writeTrace(filepath.Join(".bench_build", "traces"),
			fmt.Sprintf("%s-seed%d.json", wl.name, *seed), info, tr.spans)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# trace: %d spans written to %s\n", len(tr.spans), path)
	}

	var attempted, failed int64
	for _, w := range windows {
		attempted += w.attempted
		failed += w.failed
	}
	if hwm, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(hwm), "\n") {
			if strings.HasPrefix(l, "VmHWM:") {
				fmt.Printf("# peak rss %s\n", strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:")))
			}
		}
	}
	checked, bad, err := sess.check(ctx)
	if err != nil {
		return fmt.Errorf("output check: %w", err)
	}
	failed += bad
	fmt.Printf("# output check: %d outputs compared, %d mismatched\n", checked, bad)
	fmt.Printf("# failed_frac %.6g (%d of %d ops)\n", float64(failed)/float64(attempted), failed, attempted)

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	out, err := m.pick(names)
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %-6s n=%d\n", n, out[n].Value, out[n].Unit, out[n].n)
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{failed == 0 && checked > 0 && attempted > 0, attempted, failed, out})
}

// layers fills the per-layer metrics of a traced run: the workload's own
// counters, the spans of the traced window, and the layer ladder.
func layers(ctx context.Context, b *bench, wl *workloadDef, sess session, m metricSet, tr *tracer, wu, wt window) error {
	if err := sess.counters(m, wu.attempted+wt.attempted); err != nil {
		return fmt.Errorf("counters: %w", err)
	}
	// The per-op resource use comes from the untraced window.
	per := float64(len(wu.lat))
	m.add("proc.cpu_ms_per_op", wu.proc.cpu.Seconds()*1e3/per, "ms", len(wu.lat))
	m.add("proc.alloc_kb_per_op", float64(wu.proc.allocBytes)/1024/per, "KiB", len(wu.lat))
	// The runtime updates its GC CPU estimate at the end of each cycle,
	// so a window without one reads 0.
	m.add("proc.gc_cpu_frac", wu.proc.gcCPU/math.Max(wu.proc.cpu.Seconds(), 1e-9), "ratio", 0)
	m.add("trace.overhead_pct", 100*(wu.throughput()/wt.throughput()-1), "%", 0)
	fmt.Printf("# throughput untraced %.3f/s (%d ops), traced %.3f/s (%d ops)\n",
		wu.throughput(), len(wu.lat), wt.throughput(), len(wt.lat))

	if err := ladderKernels(tr, m, b.seed); err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	if err := ladderEngine(ctx, tr, m, b, wl, wu); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	t, err := wl.table(b)
	if err != nil {
		return fmt.Errorf("table: %w", err)
	}
	if err := ladderRender(tr, m, t); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	ladderCache(tr, m, int64(len(t.CSV())))
	path, body := wl.request(b)
	if err := ladderServer(ctx, tr, m, b, path, body); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if !m.has("jobs.queue_ms") {
		if err := ladderJobs(ctx, tr, m, b); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	// Workloads without a server or a cluster report their counters as 0.
	for _, c := range []struct{ name, unit string }{
		{"cache.hit_ratio", "ratio"}, {"cache.evictions_per_op", "count"}, {"cache.resident_mb", "MiB"},
		{"cluster.dispatches_per_op", "count"}, {"cluster.fallbacks", "count"},
	} {
		if !m.has(c.name) {
			m.add(c.name, 0, c.unit, 0)
		}
	}
	// Figure times come from the traced window's spans, or from two
	// ladder passes when the workload's ops run no figures.
	if _, ok := selfTimes(tr.spans)["charexp.fig3"]; !ok {
		for k := int64(0); k < 2; k++ {
			if _, err := charPass(tr, k, -1, charConfig(deriveSeed(b.seed, streamLadder, k), b.workers)); err != nil {
				return fmt.Errorf("figures: %w", err)
			}
		}
	}
	lts := selfTimes(tr.spans)
	for _, id := range charFigures {
		name := figSpan(id)
		m.add(name+"_ms", lts[name].meanMS(), "ms", lts[name].Count)
	}
	return nil
}
