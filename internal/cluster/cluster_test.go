package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// fleetCoord builds a coordinator over n in-process worker groups, each
// an independent cache domain, sharing an optional backend tier.
func fleetCoord(n int, backend cache.Backend) (*cluster.Coordinator, []*cluster.Group) {
	groups := make([]*cluster.Group, n)
	workers := make([]cluster.Worker, n)
	for i := range groups {
		groups[i] = cluster.NewGroup(fmt.Sprintf("group-%d", i), cache.New(0), backend, backend, nil)
		workers[i] = groups[i]
	}
	return cluster.New(groups[0], workers...), groups
}

// charCfg is the reduced-scale sweep configuration (mirrors the charexp
// suite's small config).
func charCfg() charexp.Config {
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	reps := fleet.Representative(fc)
	cfg.Fleet = []fleet.Entry{reps[0], reps[3]} // one H, one M
	cfg.Trials = 2
	cfg.GroupsPerSubarray = 3
	cfg.Banks = 1
	return cfg
}

// scenCfg is the reduced-scale scenario configuration.
func scenCfg() scenario.Config {
	cfg := scenario.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	reps := fleet.Representative(fc)
	cfg.Fleet = []fleet.Entry{reps[0], reps[3]}
	cfg.Trials = 2
	cfg.GroupsPerSubarray = 2
	cfg.Banks = 1
	cfg.Grid = scenario.Grid{T2: []float64{1.5, 3.0}, Temp: []float64{50, 90}}
	return cfg
}

// workCfg is the reduced-scale workload fleet configuration.
func workCfg() workload.FleetConfig {
	cfg := workload.DefaultFleetConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	cfg.Entries = fleet.Representative(fc)[:2]
	cfg.Workloads = workload.All()[:1]
	return cfg
}

// TestClusterInvariance is the cluster path of the determinism contract:
// for every request family, fanning shards out over 1, 2 or 4 in-process
// worker groups — with and without a shared tiered-cache backend — must
// reproduce the single-node output byte for byte.
func TestClusterInvariance(t *testing.T) {
	families := []struct {
		name string
		run  func(t *testing.T, d engine.Dispatcher) string
	}{
		{"sweep", func(t *testing.T, d engine.Dispatcher) string {
			cfg := charCfg()
			cfg.Dispatch = d
			r, err := charexp.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Figure3()
			if err != nil {
				t.Fatal(err)
			}
			return res.Table().Render()
		}},
		{"scenario-grid", func(t *testing.T, d engine.Dispatcher) string {
			cfg := scenCfg()
			cfg.Dispatch = d
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := scenario.WriteReport(&b, res, "csv"); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"envelope", func(t *testing.T, d engine.Dispatcher) string {
			cfg := scenCfg()
			cfg.Grid = scenario.Grid{Temp: []float64{50, 90}}
			cfg.Envelope = &scenario.Envelope{Axis: "t2", Steps: 2}
			cfg.Dispatch = d
			res, err := scenario.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := scenario.WriteReport(&b, res, "csv"); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
		{"workload", func(t *testing.T, d engine.Dispatcher) string {
			cfg := workCfg()
			cfg.Dispatch = d
			results, err := workload.RunFleet(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := workload.WriteReport(&b, results, "csv"); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			want := f.run(t, nil) // single-node in-process baseline
			shared := cache.NewMemBackend()
			variants := []struct {
				name    string
				groups  int
				backend cache.Backend
			}{
				{"groups-1", 1, nil},
				{"groups-2", 2, nil},
				{"groups-4", 4, nil},
				{"groups-2-tiered", 2, shared},
				{"groups-4-tiered", 4, shared}, // warm: reuses the tier the 2-group fleet filled
			}
			for _, v := range variants {
				coord, groups := fleetCoord(v.groups, v.backend)
				got := f.run(t, coord)
				if got != want {
					t.Errorf("%s: dispatched output diverges from single-node run\n got: %q\nwant: %q",
						v.name, got, want)
				}
				if v.groups > 1 {
					st := coord.Stats()
					busy, total := 0, int64(0)
					for _, n := range st.Dispatched {
						total += n
						if n > 0 {
							busy++
						}
					}
					// With only a handful of shards one worker may win them
					// all; demand spread only when there is enough work.
					if total >= 8 && busy < 2 {
						t.Errorf("%s: rendezvous placement used %d workers; want >= 2 (%v)",
							v.name, busy, st.Dispatched)
					}
				}
				// The 4-group tiered fleet runs after the 2-group one filled
				// the shared tier: every shard must be a backend hit.
				if v.name == "groups-4-tiered" {
					for _, g := range groups {
						if ex := g.Stats().Executions; ex != 0 {
							t.Errorf("%s: %s executed %d shards; want 0 (shared tier warm)",
								v.name, g.Name(), ex)
						}
					}
				}
			}
		})
	}
}

// recordWorker is a fake Worker recording which keys it was assigned.
type recordWorker struct {
	name string
	keys []string
	fail bool
}

func (w *recordWorker) Name() string { return w.name }
func (w *recordWorker) Exec(_ context.Context, req cluster.Request) (any, error) {
	if w.fail {
		return nil, fmt.Errorf("worker %s down", w.name)
	}
	w.keys = append(w.keys, req.Key)
	return w.name, nil
}

// testKey derives a distinct shard key from an index.
func testKey(i int) engine.ShardKey {
	return cache.NewHasher().Str("cluster-test").Int(i).Sum()
}

// TestRendezvousPlacement pins the placement properties: determinism
// across coordinator instances, the minimal-disruption property of HRW
// hashing (growing the fleet only moves keys onto the new worker), and a
// non-degenerate spread.
func TestRendezvousPlacement(t *testing.T) {
	const n = 64
	assign := func(names ...string) map[int]string {
		workers := make([]cluster.Worker, len(names))
		for i, name := range names {
			workers[i] = &recordWorker{name: name}
		}
		c := cluster.New(nil, workers...)
		out := make(map[int]string, n)
		for i := 0; i < n; i++ {
			k := testKey(i)
			got, err := c.ExecShard(context.Background(), k, "kind", struct{}{})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = got.(string)
		}
		return out
	}
	a := assign("alpha", "beta")
	if b := assign("alpha", "beta"); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("placement is not deterministic across coordinator instances")
	}
	grown := assign("alpha", "beta", "gamma")
	moved := 0
	for i, w := range grown {
		if w != a[i] {
			moved++
			if w != "gamma" {
				t.Fatalf("key %d moved %s -> %s; HRW growth may only move keys to the new worker", i, a[i], w)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key moved to the new worker; placement is degenerate")
	}
	spread := map[string]int{}
	for _, w := range grown {
		spread[w]++
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if spread[name] == 0 {
			t.Fatalf("worker %s received no keys out of %d (%v)", name, n, spread)
		}
	}
}

// TestCoordinatorFallback: a dead remote worker degrades to local
// execution, counted in Stats.Fallbacks.
func TestCoordinatorFallback(t *testing.T) {
	local := &recordWorker{name: "local"}
	dead := &recordWorker{name: "dead", fail: true}
	c := cluster.New(local, local, dead)
	deadServed := 0
	for i := 0; i < 32; i++ {
		out, err := c.ExecShard(context.Background(), testKey(i), "kind", struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		if out != "local" {
			t.Fatalf("key %d served by %q; want local (fallback)", i, out)
		}
		if c.Stats().Dispatched["dead"] > int64(deadServed) {
			deadServed++
		}
	}
	st := c.Stats()
	if st.Fallbacks == 0 || st.Dispatched["dead"] == 0 {
		t.Fatalf("stats %+v; want dead-worker dispatches rerouted as fallbacks", st)
	}
	if st.Fallbacks != st.Dispatched["dead"] {
		t.Fatalf("fallbacks %d != dead dispatches %d", st.Fallbacks, st.Dispatched["dead"])
	}
}

// TestGroupCaching pins the worker-side cache path: a repeated shard is a
// local hit, and a shard computed by one group is a shared-tier hit on
// another — no re-execution either way.
func TestGroupCaching(t *testing.T) {
	cfg := workCfg()
	cfg.Entries = cfg.Entries[:1]
	spec := workload.ShardSpec{
		Entry:     cfg.Entries[0],
		Params:    cfg.Params,
		Workloads: []string{cfg.Workloads[0].Name()},
		MaxX:      cfg.MaxX,
		Seed:      cfg.Seed,
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.NewHasher().Str("group-caching-test").Sum()
	req := cluster.Request{Key: cache.KeyString(key), Kind: cluster.KindWorkload, Spec: raw}

	shared := cache.NewMemBackend()
	g1 := cluster.NewGroup("g1", cache.New(0), shared, shared, nil)
	first, err := g1.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := g1.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached shard result diverges from the computed one")
	}
	if st := g1.Stats(); st.Requests != 2 || st.Executions != 1 {
		t.Fatalf("g1 stats %+v; want 2 requests, 1 execution (local hit)", st)
	}
	g2 := cluster.NewGroup("g2", cache.New(0), shared, shared, nil)
	third, err := g2.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, first) {
		t.Fatal("shared-tier shard result diverges from the computed one")
	}
	if st := g2.Stats(); st.Executions != 0 {
		t.Fatalf("g2 stats %+v; want 0 executions (shared-tier hit)", st)
	}
}

// TestPeerHTTP exercises the HTTP worker transport and the RemoteCache
// backend client against an inline node.
func TestPeerHTTP(t *testing.T) {
	group := cluster.NewGroup("remote", cache.New(0), nil, nil, nil)
	backend := cache.NewMemBackend()
	var gotAuth, gotRID string
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+cluster.ShardPath, func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		gotRID = r.Header.Get("X-Request-ID")
		var req cluster.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := group.Exec(r.Context(), req)
		if err == nil {
			err = json.NewEncoder(w).Encode(out)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET "+cluster.CachePathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		k := parseHexKey(t, r.PathValue("key"))
		b, ok := backend.Get(k)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("PUT "+cluster.CachePathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		backend.Put(parseHexKey(t, r.PathValue("key")), []byte(readAll(r)))
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := workCfg()
	spec := workload.ShardSpec{
		Entry:     cfg.Entries[0],
		Params:    cfg.Params,
		Workloads: []string{cfg.Workloads[0].Name()},
		MaxX:      cfg.MaxX,
		Seed:      cfg.Seed,
	}
	raw, _ := json.Marshal(spec)
	key := testKey(1)
	req := cluster.Request{Key: cache.KeyString(key), Kind: cluster.KindWorkload, Spec: raw, RequestID: "rid-42"}

	peer := cluster.NewPeer(ts.URL, "fleet-secret")
	out, err := peer.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := group.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatal("peer-transported shard result diverges from local execution")
	}
	if gotAuth != "Bearer fleet-secret" {
		t.Fatalf("peer sent Authorization %q; want the cluster bearer token", gotAuth)
	}
	if gotRID != "rid-42" {
		t.Fatalf("peer sent X-Request-ID %q; want rid-42", gotRID)
	}
	if err := peer.Health(context.Background()); err == nil {
		t.Fatal("Health against a mux without /healthz should fail")
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) })
	if err := peer.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}

	rc := cluster.NewRemoteCache(ts.URL, "fleet-secret")
	if _, ok := rc.Get(key); ok {
		t.Fatal("RemoteCache.Get hit an empty backend")
	}
	rc.Put(key, []byte("payload"))
	if b, ok := rc.Get(key); !ok || string(b) != "payload" {
		t.Fatalf("RemoteCache round trip = (%q, %v); want payload", b, ok)
	}

	// A bad status degrades Exec to an error carrying the body.
	bad := cluster.NewPeer(ts.URL+"/missing", "")
	if _, err := bad.Exec(context.Background(), req); err == nil {
		t.Fatal("Exec against a missing route should fail")
	}
}

// TestRemoteCacheErrorDiscrimination pins the degraded-but-not-silent
// contract: a 404 from the cache host is a true miss (no error), while
// transport failures and unexpected statuses degrade to misses but
// increment the error counter and fire the OnError hook.
func TestRemoteCacheErrorDiscrimination(t *testing.T) {
	mux := http.NewServeMux()
	status := http.StatusNotFound
	mux.HandleFunc(cluster.CachePathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rc := cluster.NewRemoteCache(ts.URL, "")
	var hooked []string
	rc.OnError = func(op string, err error) {
		hooked = append(hooked, op+": "+err.Error())
	}

	// 404 is a miss, not an error.
	if _, ok := rc.Get(testKey(7)); ok {
		t.Fatal("Get hit on a 404 backend")
	}
	if rc.Errors() != 0 || len(hooked) != 0 {
		t.Fatalf("404 miss counted as error: %d (%v)", rc.Errors(), hooked)
	}

	// A 500 is a degraded miss: counted and hooked.
	status = http.StatusInternalServerError
	if _, ok := rc.Get(testKey(7)); ok {
		t.Fatal("Get hit on a 500 backend")
	}
	if rc.Errors() != 1 || len(hooked) != 1 || !strings.Contains(hooked[0], "get:") {
		t.Fatalf("500 not surfaced: errors=%d hooked=%v", rc.Errors(), hooked)
	}

	// A rejected Put is a dropped write: counted and hooked.
	rc.Put(testKey(7), []byte("payload"))
	if rc.Errors() != 2 || len(hooked) != 2 || !strings.Contains(hooked[1], "put:") {
		t.Fatalf("rejected Put not surfaced: errors=%d hooked=%v", rc.Errors(), hooked)
	}

	// A dead host degrades every operation, each counted.
	dead := cluster.NewRemoteCache("http://127.0.0.1:1", "")
	if _, ok := dead.Get(testKey(7)); ok {
		t.Fatal("Get hit on a dead host")
	}
	dead.Put(testKey(7), []byte("payload"))
	if dead.Errors() != 2 {
		t.Fatalf("dead host errors = %d, want 2", dead.Errors())
	}
}

// parseHexKey decodes a hex cache key (test helper).
func parseHexKey(t *testing.T, s string) cache.Key {
	t.Helper()
	k, err := (cluster.Request{Key: s}).ParseKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// readAll drains a request body (test helper).
func readAll(r *http.Request) string {
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

// TestRequestParseKey pins the wire key codec.
func TestRequestParseKey(t *testing.T) {
	k := testKey(7)
	req := cluster.Request{Key: cache.KeyString(k)}
	got, err := req.ParseKey()
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatal("ParseKey round trip drifted")
	}
	for _, bad := range []string{"", "zz", cache.KeyString(k)[:10]} {
		if _, err := (cluster.Request{Key: bad}).ParseKey(); err == nil {
			t.Fatalf("ParseKey(%q) should fail", bad)
		}
	}
}

// TestUnknownKind pins the 422-surface error for undispatchable specs.
func TestUnknownKind(t *testing.T) {
	g := cluster.NewGroup("g", cache.New(0), nil, nil, nil)
	req := cluster.Request{Key: cache.KeyString(testKey(0)), Kind: "martian", Spec: []byte("{}")}
	if _, err := g.Exec(context.Background(), req); err == nil ||
		!strings.Contains(err.Error(), "valid: core, workload") {
		t.Fatalf("unknown kind error %v; want the valid-options suffix", err)
	}
}
