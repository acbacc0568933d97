package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/jobs"
)

// trngBody is a cheap deterministic request reused across fleet tests.
const trngBody = `{"bytes":64,"seed":2024,"rows":32}`

// TestFleetWideCacheHit: two nodes sharing a cache backend — the second
// node answers an already-computed request from the shared tier without
// executing.
func TestFleetWideCacheHit(t *testing.T) {
	shared := cache.NewMemBackend()
	a, tsA := testServer(t, Config{Backend: shared})
	b, tsB := testServer(t, Config{Backend: shared})

	status, bodyA := postJSON(t, tsA.URL+"/v1/trng", trngBody)
	if status != http.StatusOK {
		t.Fatalf("node A: status %d (%s)", status, bodyA)
	}
	if a.Executions("trng") != 1 {
		t.Fatalf("node A executions = %d; want 1", a.Executions("trng"))
	}
	status, bodyB := postJSON(t, tsB.URL+"/v1/trng", trngBody)
	if status != http.StatusOK {
		t.Fatalf("node B: status %d (%s)", status, bodyB)
	}
	if b.Executions("trng") != 0 {
		t.Fatalf("node B executions = %d; want 0 (fleet-wide hit)", b.Executions("trng"))
	}
	var ra, rb Response
	if err := json.Unmarshal([]byte(bodyA), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(bodyB), &rb); err != nil {
		t.Fatal(err)
	}
	if !rb.Cached {
		t.Fatal("node B response not marked cached")
	}
	if ra.Output != rb.Output || ra.Key != rb.Key {
		t.Fatal("fleet-wide hit returned different bytes than the computing node")
	}
	if st := b.CacheStats(); st.RemoteHits == 0 {
		t.Fatalf("node B tier stats %+v; want at least one remote hit", st)
	}
}

// TestFleetWideRateLimit: the token bucket lives in the shared cache
// tier, so a client's budget spans nodes — exhausting it on A throttles
// the same client on B.
func TestFleetWideRateLimit(t *testing.T) {
	shared := cache.NewMemBackend()
	cfg := Config{Backend: shared, RatePerSec: 0.001, RateBurst: 2}
	_, tsA := testServer(t, cfg)
	_, tsB := testServer(t, cfg)

	if resp, _ := doReq(t, http.MethodGet, tsA.URL+"/v1/jobs", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("A first request: %d; want 200", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, tsB.URL+"/v1/jobs", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("B second request: %d; want 200", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, tsA.URL+"/v1/jobs", "", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("A third request: %d (%s); want 429 — bucket must be fleet-wide", resp.StatusCode, body)
	}
}

// TestVersionEndpoint pins the /v1/version document.
func TestVersionEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/version", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var v VersionInfo
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Service != "simra-serve" || v.APIRevision != "v1" || v.GoVersion == "" {
		t.Fatalf("version document %+v; want service/api_revision/go_version filled", v)
	}
}

// TestHealthRoles: /healthz reports each node's cluster role and group
// count.
func TestHealthRoles(t *testing.T) {
	readHealth := func(url string) healthResponse {
		t.Helper()
		resp, body := doReq(t, http.MethodGet, url+"/healthz", "", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %d (%s)", resp.StatusCode, body)
		}
		var h healthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" {
			t.Fatalf("status %q; want ok", h.Status)
		}
		return h
	}

	_, tsSingle := testServer(t, Config{})
	if h := readHealth(tsSingle.URL); h.Role != "single" || h.Groups != 1 {
		t.Fatalf("single node health %+v; want role single, 1 group", h)
	}

	_, tsMulti := testServer(t, Config{Groups: 2})
	if h := readHealth(tsMulti.URL); h.Role != "coordinator" || h.Groups != 2 {
		t.Fatalf("multi-group health %+v; want role coordinator, 2 groups", h)
	}

	// A coordinator with peers probes them.
	_, tsWorker := testServer(t, Config{CachePeer: tsSingle.URL})
	if h := readHealth(tsWorker.URL); h.Role != "worker" {
		t.Fatalf("worker health %+v; want role worker", h)
	}
	_, tsCoord := testServer(t, Config{Peers: []string{tsWorker.URL}})
	h := readHealth(tsCoord.URL)
	if h.Role != "coordinator" || len(h.Peers) != 1 {
		t.Fatalf("coordinator health %+v; want role coordinator with 1 peer", h)
	}
	if !h.Peers[0].Healthy {
		t.Fatalf("peer %+v reported unhealthy", h.Peers[0])
	}
	// A dead peer degrades the peer entry, never the node itself.
	_, tsLonely := testServer(t, Config{Peers: []string{"http://127.0.0.1:1"}})
	h = readHealth(tsLonely.URL)
	if len(h.Peers) != 1 || h.Peers[0].Healthy {
		t.Fatalf("health with dead peer %+v; want the peer marked unhealthy", h)
	}
}

// TestGroupsByteIdentity: a multi-group coordinator must answer public
// requests byte-identically to a plain single node, at every fleet width
// the deployment docs mention (1, 2 and 4 groups).
func TestGroupsByteIdentity(t *testing.T) {
	_, tsPlain := testServer(t, Config{})
	var fleets []*httptest.Server
	for _, groups := range []int{2, 4} {
		_, ts := testServer(t, Config{Groups: groups})
		fleets = append(fleets, ts)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", smallSweep()},
		{"/v1/workload", `{"workloads":"bitmap-scan","modules":"representative","cols":64,"maxx":3,"format":"csv"}`},
		{"/v1/campaign", `{"workload":"bitmap-scan","top":5,"cols":64,"format":"csv"}`},
	} {
		stP, bodyP := postJSON(t, tsPlain.URL+tc.path, tc.body)
		if stP != http.StatusOK {
			t.Fatalf("%s: plain node status %d (%s)", tc.path, stP, bodyP)
		}
		var rp Response
		if err := json.Unmarshal([]byte(bodyP), &rp); err != nil {
			t.Fatal(err)
		}
		for i, tsFleet := range fleets {
			stF, bodyF := postJSON(t, tsFleet.URL+tc.path, tc.body)
			if stF != http.StatusOK {
				t.Fatalf("%s: fleet %d status %d (%s)", tc.path, i, stF, bodyF)
			}
			var rf Response
			if err := json.Unmarshal([]byte(bodyF), &rf); err != nil {
				t.Fatal(err)
			}
			if rp.Output != rf.Output || rp.Key != rf.Key {
				t.Fatalf("%s: multi-group output diverged from single-node", tc.path)
			}
		}
	}
}

// TestHostedTierBoundedByCacheBytes: a two-group node hosts the fleet's
// shared tier in-process and writes every shard result and response it
// computes through to it. Fresh-seed workload jobs write new entries with
// every job, so the hosted tier must evict within CacheBytes like the
// local tier instead of keeping every entry it was ever given.
func TestHostedTierBoundedByCacheBytes(t *testing.T) {
	const budget = 16 << 10
	s := New(Config{Groups: 2, CacheBytes: budget})
	t.Cleanup(s.Close)
	for seed := uint64(1); seed <= 16; seed++ {
		st, _, err := s.SubmitJob(JobRequest{Kind: "workload", Workload: &WorkloadRequest{
			Workloads: "bitmap-scan", Modules: "representative", Columns: 64, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		final, err := s.WaitJob(context.Background(), st.ID)
		if err != nil || final.State != jobs.StateSucceeded {
			t.Fatalf("job %d: %+v, %v", seed, final, err)
		}
	}
	hs := s.hosted.Stats()
	if hs.Evictions == 0 {
		t.Fatalf("hosted tier never filled its %d-byte budget: %+v", budget, hs)
	}
	if hs.Bytes > budget {
		t.Fatalf("hosted tier holds %d bytes in %d entries, past its %d-byte budget",
			hs.Bytes, hs.Entries, budget)
	}
}

// copyingBackend hides MemBackend's ownership hand-off, so every write to
// the shared tier copies as a remote backend's would.
type copyingBackend struct{ cache.Backend }

// TestGroupsHandOffByteIdentity: a two-group node whose in-process shared
// tier takes ownership of shard and response bytes answers byte-identically
// to one whose shared tier copies them — both for the node that computes
// and for a second node answering from the shared tier.
func TestGroupsHandOffByteIdentity(t *testing.T) {
	if _, ok := cache.Backend(copyingBackend{cache.NewMemBackend()}).(cache.Owner); ok {
		t.Fatal("copyingBackend still exposes the hand-off")
	}
	reqs := []struct{ path, body string }{
		{"/v1/sweep", smallSweep()},
		{"/v1/workload", `{"workloads":"bitmap-scan","modules":"representative","cols":64,"maxx":5,"format":"csv"}`},
	}
	outputs := func(backend cache.Backend) []string {
		var out []string
		for node := range 2 {
			srv, ts := testServer(t, Config{Groups: 2, Backend: backend})
			for _, tc := range reqs {
				st, body := postJSON(t, ts.URL+tc.path, tc.body)
				if st != http.StatusOK {
					t.Fatalf("%s: status %d (%s)", tc.path, st, body)
				}
				var r Response
				if err := json.Unmarshal([]byte(body), &r); err != nil {
					t.Fatal(err)
				}
				out = append(out, r.Key+"\n"+r.Output)
			}
			if st := srv.CacheStats(); node == 1 && st.RemoteHits != int64(len(reqs)) {
				t.Fatalf("second node tier stats %+v; want every response from the shared tier", st)
			}
		}
		return out
	}
	owned := outputs(cache.NewMemBackend())
	copied := outputs(copyingBackend{cache.NewMemBackend()})
	for i := range owned {
		if owned[i] != copied[i] || owned[i] != owned[i%len(reqs)] {
			t.Fatalf("response %d diverged with the shared tier's hand-off", i)
		}
	}
}

// TestPeerTopology drives a real two-node HTTP fleet: a worker whose
// shared tier points at a cache host, and a coordinator fanning shards
// to the worker over the internal shard route. The coordinator's answer
// must be byte-identical to a plain single node's, and the computed
// shards must be visible fleet-wide afterwards.
func TestPeerTopology(t *testing.T) {
	_, tsHost := testServer(t, Config{Groups: 2}) // hosts a shared tier
	w, tsWorker := testServer(t, Config{CachePeer: tsHost.URL, ClusterToken: "fleet-secret"})
	c, tsCoord := testServer(t, Config{
		CachePeer:    tsHost.URL,
		Peers:        []string{tsWorker.URL},
		ClusterToken: "fleet-secret",
	})
	_, tsPlain := testServer(t, Config{})

	stP, bodyP := postJSON(t, tsPlain.URL+"/v1/sweep", smallSweep())
	stC, bodyC := postJSON(t, tsCoord.URL+"/v1/sweep", smallSweep())
	if stP != http.StatusOK || stC != http.StatusOK {
		t.Fatalf("plain %d coordinator %d (%s)", stP, stC, bodyC)
	}
	var rp, rc Response
	if err := json.Unmarshal([]byte(bodyP), &rp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(bodyC), &rc); err != nil {
		t.Fatal(err)
	}
	if rp.Output != rc.Output || rp.Key != rc.Key {
		t.Fatal("two-node fleet output diverged from single-node")
	}
	cs := c.ClusterStats()
	var remote int64
	for name, n := range cs.Dispatched {
		if name != "group-0" {
			remote += n
		}
	}
	if remote == 0 {
		t.Fatalf("coordinator dispatched nothing to the HTTP peer: %+v", cs.Dispatched)
	}
	if got := w.worker.Stats().Requests; got == 0 {
		t.Fatal("worker group served no shard requests")
	}

	// The same request against the worker's public route is now a
	// fleet-wide cache hit: shards were written through to the host tier.
	stW, bodyW := postJSON(t, tsWorker.URL+"/v1/sweep", smallSweep())
	if stW != http.StatusOK {
		t.Fatalf("worker public request: %d (%s)", stW, bodyW)
	}
	if got := w.Executions("sweep"); got != 0 {
		t.Fatalf("worker executed %d sweeps; want 0 — shard bytes should come from the shared tier", got)
	}
	var rw Response
	if err := json.Unmarshal([]byte(bodyW), &rw); err != nil {
		t.Fatal(err)
	}
	if rw.Output != rp.Output {
		t.Fatal("worker's tier-served output diverged")
	}
}

// TestRemoteCacheErrorSurfacing: a worker whose shared tier points at a
// dead cache host must still serve requests (degraded to local compute),
// but the failure has to be visible — a warn line on the audit log and a
// nonzero simra_cache_remote_errors_total in /metrics — instead of
// masquerading as an endless cold cache.
func TestRemoteCacheErrorSurfacing(t *testing.T) {
	log := &syncBuffer{}
	_, ts := testServer(t, Config{CachePeer: "http://127.0.0.1:1", AuditLog: log})

	status, body := postJSON(t, ts.URL+"/v1/trng", `{"bytes":16,"seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("trng through dead cache host: status %d (%s); want 200 (degraded, not broken)", status, body)
	}

	_, metrics := doReq(t, http.MethodGet, ts.URL+"/metrics", "", "")
	line := ""
	for _, l := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(l, "simra_cache_remote_errors_total ") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("/metrics has no simra_cache_remote_errors_total line:\n%s", metrics)
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(line, "simra_cache_remote_errors_total ")); err != nil || n < 1 {
		t.Fatalf("remote errors metric %q; want >= 1 after a dead-host request", line)
	}

	audit := log.String()
	if !strings.Contains(audit, `"level":"warn"`) || !strings.Contains(audit, `"event":"cache_remote_error"`) {
		t.Fatalf("audit log carries no cache_remote_error warn line:\n%s", audit)
	}
}

// TestInternalShardErrors pins the internal route's error surface.
func TestInternalShardErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/internal/shard", "not json")
	if status != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d (%s); want 400", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v1/internal/shard", `{"key":"zz","kind":"core","spec":{}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad key: %d (%s); want 400", status, body)
	}
	key := "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
	for _, kind := range []string{"core", "workload"} {
		status, body = postJSON(t, ts.URL+"/v1/internal/shard", `{"key":"`+key+`","kind":"`+kind+`","spec":[1,2]}`)
		if status != http.StatusBadRequest {
			t.Fatalf("malformed %s spec: %d (%s); want 400", kind, status, body)
		}
	}
	status, body = postJSON(t, ts.URL+"/v1/internal/shard", `{"key":"`+key+`","kind":"martian","spec":{}}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown kind: %d (%s); want 422", status, body)
	}
	var e ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "invalid_argument" || len(e.Error.ValidOptions) == 0 {
		t.Fatalf("422 envelope %+v; want invalid_argument with valid_options", e.Error)
	}
}
