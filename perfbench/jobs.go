package main

import (
	"bufio"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	simra "repro"
	"repro/pkg/simraclient"
)

// jobTiming is one job's life as the job tier and the client saw it.
type jobTiming struct {
	queue, exec, notify time.Duration
}

// runJob is simraclient's RunJob (submit → watch the SSE stream to the
// terminal event → fetch the result), spelled out so each step gets its
// own span and the terminal status is kept for the job-tier timings.
func runJob(ctx context.Context, tr *tracer, cl *simraclient.Client, q simraclient.JobRequest, i int64, parent int) (*simraclient.Result, jobTiming, error) {
	var jt jobTiming
	st, err := traced(tr, "jobs.submit", i, parent, func() (simraclient.JobStatus, error) {
		return cl.SubmitJob(ctx, q)
	})
	if err != nil {
		return nil, jt, err
	}
	if !st.Terminal() {
		st, err = traced(tr, "jobs.watch", i, parent, func() (simraclient.JobStatus, error) {
			return cl.WatchJob(ctx, st.ID, nil)
		})
		if err != nil {
			return nil, jt, err
		}
	}
	seen := time.Now()
	if st.State != "succeeded" {
		return nil, jt, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if st.Started != nil && st.Finished != nil {
		jt = jobTiming{
			queue:  st.Started.Sub(st.Created),
			exec:   st.Finished.Sub(*st.Started),
			notify: seen.Sub(*st.Finished),
		}
	}
	res, err := traced(tr, "jobs.result", i, parent, func() (*simraclient.Result, error) {
		return cl.JobResult(ctx, st.ID)
	})
	return res, jt, err
}

// jobServerConfig is the jobs-fleet server: two in-process worker groups
// behind the cluster coordinator. Terminal jobs expire after a second,
// so the job store holds a bounded number of jobs however many ops a
// run completes.
func jobServerConfig(workers int) simra.ServeConfig {
	return simra.ServeConfig{
		CacheBytes: 4 << 20, MaxInflight: workers, Workers: workers,
		JobWorkers: workers, Groups: 2, JobTTL: time.Second,
	}
}

// jobsFleet is the jobs-fleet workload: fresh-seed workload jobs run
// through the job tier of a two-group server.
type jobsFleet struct {
	b    *bench
	ls   *liveServer
	recs []rec
	jts  []jobTiming
}

func setupJobsFleet(ctx context.Context, b *bench, rep int) (session, error) {
	ls, err := startServer(jobServerConfig(b.workers))
	if err != nil {
		return nil, err
	}
	for k := 0; k < 2; k++ {
		q := workloadRequest(deriveSeed(b.seed, streamWarm, int64(rep*2+k)), "text")
		if _, _, err := runJob(ctx, nil, ls.cl, simraclient.JobRequest{Kind: "workload", Workload: &q}, -1, -1); err != nil {
			ls.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return &jobsFleet{b: b, ls: ls}, nil
}

func (s *jobsFleet) op(ctx context.Context, tr *tracer, i int64) error {
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	res, jt, err := runJob(ctx, tr, s.ls.cl, jobRequest(s.b.seed, i), i, root)
	if err != nil {
		return err
	}
	s.recs = append(s.recs, rec{i, digestString(resultBytes(res))})
	s.jts = append(s.jts, jt)
	return nil
}

func (s *jobsFleet) check(ctx context.Context) (checked, bad int64, err error) {
	for _, r := range sampleRecs(s.recs, checkSamples) {
		want, err := libWorkload(ctx, *jobRequest(s.b.seed, r.i).Workload, s.b.workers)
		if err != nil {
			return checked, bad, err
		}
		checked++
		if digestString(want) != r.digest {
			bad++
		}
	}
	return checked, bad, nil
}

func (s *jobsFleet) counters(m metricSet, ops int64) error {
	cacheCounters(m, s.ls.srv.CacheStats(), ops)
	cs := s.ls.srv.ClusterStats()
	var dispatched int64
	for _, n := range cs.Dispatched {
		dispatched += n
	}
	m.add("cluster.dispatches_per_op", float64(dispatched)/float64(ops), "count", 0)
	m.add("cluster.fallbacks", float64(cs.Fallbacks), "count", 0)
	jobMetrics(m, s.jts)
	return warmpoolMetric(m, s.ls)
}

func (s *jobsFleet) close() { s.ls.close() }

// jobMetrics adds the job-tier medians over the recorded jobs.
func jobMetrics(m metricSet, jts []jobTiming) {
	var q, e, n []float64
	for _, jt := range jts {
		q = append(q, jt.queue.Seconds()*1e3)
		e = append(e, jt.exec.Seconds()*1e3)
		n = append(n, jt.notify.Seconds()*1e3)
	}
	m.add("jobs.queue_ms", median(q), "ms", len(q))
	m.add("jobs.exec_ms", median(e), "ms", len(e))
	m.add("jobs.notify_ms", median(n), "ms", len(n))
}

// warmpoolMetric adds the warmpool hit ratio, read off /metrics, the
// only public snapshot that carries the warmpool counters.
func warmpoolMetric(m metricSet, ls *liveServer) error {
	resp, err := ls.hc.Get(ls.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			vals[name] = f
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	hits, misses := vals["simra_warmpool_hits_total"], vals["simra_warmpool_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m.add("jobs.warmpool_hit_ratio", ratio, "ratio", 0)
	return nil
}
