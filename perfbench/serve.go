package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	simra "repro"
	"repro/internal/colenc"
	"repro/pkg/simraclient"
)

// liveServer is an in-process server on a loopback port, with an SDK
// client on a keep-alive connection.
type liveServer struct {
	srv    *simra.ServeServer
	base   string
	hc     *http.Client
	cl     *simraclient.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(cfg simra.ServeConfig) (*liveServer, error) {
	cfg.Addr = "127.0.0.1:0"
	srv := simra.NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx, ready) }()
	select {
	case addr := <-ready:
		base := "http://" + addr
		hc := &http.Client{Transport: &http.Transport{}}
		return &liveServer{
			srv: srv, base: base, hc: hc, cancel: cancel, done: done,
			// No retries: a shed or failed request is a failed op.
			cl: simraclient.New(base, simraclient.WithHTTPClient(hc), simraclient.WithRetries(0)),
		}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("start server: %w", err)
	}
}

// close shuts the server down and waits until it has stopped.
func (l *liveServer) close() {
	l.hc.CloseIdleConnections()
	l.cancel()
	<-l.done
}

// post sends a JSON body and returns the response body, failing on a
// non-2xx status.
func (l *liveServer) post(ctx context.Context, path string, body any) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, out)
	}
	return out, nil
}

// resultBytes is the payload of an SDK result: the columnar stream or
// the rendered text.
func resultBytes(r *simraclient.Result) string {
	if r.Columnar != nil {
		return string(r.Columnar)
	}
	return r.Output
}

// sampleRecs picks up to n records spread evenly over the run.
func sampleRecs(recs []rec, n int) []rec {
	if len(recs) <= n {
		return recs
	}
	out := make([]rec, n)
	for k := range out {
		out[k] = recs[k*len(recs)/n]
	}
	return out
}

// checkSamples is how many timed ops of a fresh-seed workload the output
// check re-renders in the library.
const checkSamples = 24

// serveCacheBytes bounds serve-cold's result cache well below what one
// run writes, so the steady state evicts on every request.
const serveCacheBytes = 1 << 20

// serveCold is the serve-cold workload: fresh-seed /v1/sweep requests
// through the SDK, every one a cache miss.
type serveCold struct {
	b    *bench
	ls   *liveServer
	recs []rec
}

func setupServeCold(ctx context.Context, b *bench, rep int) (session, error) {
	ls, err := startServer(simra.ServeConfig{
		CacheBytes: serveCacheBytes, MaxInflight: b.workers, Workers: b.workers,
	})
	if err != nil {
		return nil, err
	}
	// Two warm-up requests per format.
	for k := 0; k < 6; k++ {
		q := sweepRequest(coldFigure, deriveSeed(b.seed, streamWarm, int64(rep*6+k)), formats[k%3])
		if _, err := ls.cl.Sweep(ctx, q); err != nil {
			ls.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &serveCold{b: b, ls: ls}, nil
}

func (s *serveCold) op(ctx context.Context, tr *tracer, i int64) error {
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	res, err := traced(tr, "server.sweep", i, root, func() (*simraclient.Result, error) {
		return s.ls.cl.Sweep(ctx, coldRequest(s.b.seed, i))
	})
	if err != nil {
		return err
	}
	s.recs = append(s.recs, rec{i, digestString(resultBytes(res))})
	return nil
}

func (s *serveCold) check(ctx context.Context) (checked, bad int64, err error) {
	for _, r := range sampleRecs(s.recs, checkSamples) {
		want, err := libSweep(coldRequest(s.b.seed, r.i), s.b.workers)
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

func (s *serveCold) counters(m metricSet, ops int64) error {
	cacheCounters(m, s.ls.srv.CacheStats(), ops)
	return nil
}

func (s *serveCold) close() { s.ls.close() }

// cacheCounters adds the result cache's per-layer counters.
func cacheCounters(m metricSet, cs simra.CacheStats, ops int64) {
	ratio := 0.0
	if n := cs.Hits + cs.Misses; n > 0 {
		ratio = float64(cs.Hits) / float64(n)
	}
	m.add("cache.hit_ratio", ratio, "ratio", 0)
	m.add("cache.evictions_per_op", float64(cs.Evictions)/float64(ops), "count", 0)
	m.add("cache.resident_mb", float64(cs.Bytes)/(1<<20), "MiB", 0)
}

// serveWarm is the serve-warm workload: a fixed hot set, computed in
// set-up, requested round-robin so every timed request is a cache hit.
type serveWarm struct {
	b    *bench
	ls   *liveServer
	hot  []hotItem
	recs []rec
}

func setupServeWarm(ctx context.Context, b *bench, rep int) (session, error) {
	ls, err := startServer(simra.ServeConfig{MaxInflight: b.workers, Workers: b.workers})
	if err != nil {
		return nil, err
	}
	s := &serveWarm{b: b, ls: ls, hot: hotSet(b.seed)}
	for _, it := range s.hot {
		if _, err := s.request(ctx, it); err != nil {
			ls.close()
			return nil, fmt.Errorf("fill hot set: %s: %w", it.name, err)
		}
	}
	return s, nil
}

// trngRequest is the hot set's TRNG request.
func trngRequest(seed uint64) simraclient.TRNGRequest {
	return simraclient.TRNGRequest{Bytes: 256, Seed: seed, Rows: 32}
}

// request sends one hot-set request and returns its payload.
func (s *serveWarm) request(ctx context.Context, it hotItem) (string, error) {
	cl := s.ls.cl
	var (
		res *simraclient.Result
		err error
	)
	switch it.kind {
	case "sweep":
		res, err = cl.Sweep(ctx, sweepRequest(coldFigure, it.seed, it.fmt))
	case "workload":
		res, err = cl.Workload(ctx, workloadRequest(it.seed, it.fmt))
	case "trng":
		res, err = cl.TRNG(ctx, trngRequest(it.seed))
	case "scenario":
		res, err = cl.Scenario(ctx, scenarioRequest(it.seed, it.fmt))
	case "campaign":
		// The SDK has no campaign call; this is the documented route.
		body, err := s.ls.post(ctx, "/v1/campaign", campaignFor(it))
		if err != nil || it.fmt == "columnar" {
			return string(body), err
		}
		var env simraclient.Envelope
		err = json.Unmarshal(body, &env)
		return env.Output, err
	case "page":
		path := fmt.Sprintf("/v1/sweep?batch=%d&batch_rows=%d", it.batch, pageRows)
		body, err := s.ls.post(ctx, path, sweepRequest(coldFigure, it.seed, "columnar"))
		return string(body), err
	}
	if err != nil {
		return "", err
	}
	return resultBytes(res), nil
}

// campaignFor is the hot set's campaign request: mixes of two modules,
// which keeps the set-up fill short.
func campaignFor(it hotItem) campaignRequest {
	return campaignRequest{Workload: workloadName, FleetSize: 2, Columns: simCols, Seed: it.seed, Format: it.fmt}
}

func (s *serveWarm) op(ctx context.Context, tr *tracer, i int64) error {
	it := s.hot[i%int64(len(s.hot))]
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	sp := tr.begin("server."+it.kind, i, root)
	out, err := s.request(ctx, it)
	tr.end(sp)
	if err != nil {
		return err
	}
	s.recs = append(s.recs, rec{i, digestString(out)})
	return nil
}

// expected renders one hot-set item in the library.
func (s *serveWarm) expected(ctx context.Context, it hotItem) (string, error) {
	w := s.b.workers
	switch it.kind {
	case "sweep":
		return libSweep(sweepRequest(coldFigure, it.seed, it.fmt), w)
	case "workload":
		return libWorkload(ctx, workloadRequest(it.seed, it.fmt), w)
	case "trng":
		return libTRNG(trngRequest(it.seed))
	case "scenario":
		return libScenario(ctx, scenarioRequest(it.seed, it.fmt), w)
	case "campaign":
		return libCampaign(ctx, campaignFor(it), w)
	default: // page
		full, err := libSweep(sweepRequest(coldFigure, it.seed, "columnar"), w)
		if err != nil {
			return "", err
		}
		page, _, err := colenc.Page([]byte(full), it.batch, pageRows)
		return string(page), err
	}
}

// check compares every timed response with the library rendering of
// its hot-set item.
func (s *serveWarm) check(ctx context.Context) (checked, bad int64, err error) {
	want := make([]uint64, len(s.hot))
	for k, it := range s.hot {
		out, err := s.expected(ctx, it)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", it.name, err)
		}
		want[k] = digestString(out)
	}
	for _, r := range s.recs {
		checked++
		if r.digest != want[r.i%int64(len(s.hot))] {
			bad++
		}
	}
	return checked, bad, nil
}

func (s *serveWarm) counters(m metricSet, ops int64) error {
	cacheCounters(m, s.ls.srv.CacheStats(), ops)
	return nil
}

func (s *serveWarm) close() { s.ls.close() }
