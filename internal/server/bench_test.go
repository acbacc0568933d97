package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// warmHitCases is one small blocking request per request family. The
// warm-hit benchmark times them; TestFamilyTable checks every families row
// has one.
var warmHitCases = []struct{ kind, body string }{
	{"sweep", `{"figure":"3","trials":1,"groups":1,"banks":1,"cols":64}`},
	{"workload", `{"modules":"representative","cols":64,"maxx":3}`},
	{"trng", `{"bytes":64,"seed":2024}`},
	{"scenario", `{"axes":"t2=1.5,3","cols":64,"groups":1,"banks":1,"trials":1}`},
	{"campaign", `{"workload":"bitmap-scan","top":5,"cols":64}`},
}

// warmHit serves one blocking raw request for kind through the whole
// handler chain onto an httptest recorder.
func warmHit(h http.Handler, kind, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind+"?raw=1", strings.NewReader(body)))
	return rec
}

// BenchmarkServerWarmHit times one warm-cache hit per family through the
// whole handler chain — middleware, mux, family route, decode, normalize,
// key, cache probe and the raw response write — on an httptest recorder,
// so no loopback TCP noise enters the number. Each sub-benchmark computes
// its request once before the timer starts; every timed request must be
// served from the cache.
func BenchmarkServerWarmHit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	for _, c := range warmHitCases {
		b.Run(c.kind, func(b *testing.B) {
			if rec := warmHit(h, c.kind, c.body); rec.Code != http.StatusOK {
				b.Fatalf("warm-up %s: %d %s", c.kind, rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := warmHit(h, c.kind, c.body); rec.Header().Get("X-Simra-Cached") != "true" {
					b.Fatalf("%s request %d missed the cache: %d %s", c.kind, i, rec.Code, rec.Body)
				}
			}
		})
	}
}

// coldSeed hands out request seeds that no earlier iteration, sub-benchmark
// or -count rerun in the process has used, so every cold-miss request
// misses the response cache and the shard memos. For sweep, trng and
// scenario the seed also names the simulated modules, so each request
// simulates modules the process-wide dram table registry has never seen.
// For workload and campaign it feeds only the input data: their modules
// come from the fixed default fleet, so after the first request they hit
// the registry and the per-identity calibration memo. Seeding from the
// loop index would repeat seeds on a rerun and time cache hits instead of
// cold work.
var coldSeed atomic.Uint64

// BenchmarkServerColdMiss times one cache-missing request per family, in
// the warmHitCases shapes at a fresh seed, through the whole handler chain
// onto an httptest recorder: decode, normalize, key, the full simulation,
// render and the cache insert. Every timed request must miss the cache.
func BenchmarkServerColdMiss(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	for _, c := range warmHitCases {
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A later duplicate key wins in encoding/json, so this
				// also overrides the trng case's fixed seed.
				body := fmt.Sprintf(`%s,"seed":%d}`, strings.TrimSuffix(c.body, "}"), 1<<32+coldSeed.Add(1))
				rec := warmHit(h, c.kind, body)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s request %d: %d %s", c.kind, i, rec.Code, rec.Body)
				}
				if got := rec.Header().Get("X-Simra-Cached"); got != "false" {
					b.Fatalf("%s request %d: X-Simra-Cached %q, want a miss", c.kind, i, got)
				}
			}
		})
	}
}

// BenchmarkServerFleetColdMiss times one cache-missing workload request
// on a node with two in-process worker groups, through the whole handler
// chain onto an httptest recorder: the coordinator fans each module's
// shard out to a group, which runs it and writes the result through to
// the hosted shared tier. It is the go test view of the cluster path that
// BenchmarkServerColdMiss, on a node without a coordinator, never takes.
func BenchmarkServerFleetColdMiss(b *testing.B) {
	s := New(Config{Groups: 2})
	defer s.Close()
	h := s.Handler()
	c := warmHitCases[1]
	if c.kind != "workload" {
		b.Fatalf("warmHitCases[1] is %s, want workload", c.kind)
	}
	body := strings.TrimSuffix(c.body, "}")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := warmHit(h, "workload", fmt.Sprintf(`%s,"seed":%d}`, body, 1<<32+coldSeed.Add(1)))
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Simra-Cached"); got != "false" {
			b.Fatalf("request %d: X-Simra-Cached %q, want a miss", i, got)
		}
	}
	if st := s.ClusterStats(); st.Dispatched["group-0"]+st.Dispatched["group-1"] == 0 {
		b.Fatalf("no shard went through the coordinator: %+v", st)
	}
}

// TestWarmHitAllocs pins the warm-hit cost structure without depending on
// the host: a workload or scenario hit normalizes by resolving module
// names and hashes a wider key, but must stay within 2x the allocations
// of a sweep hit — it must not rebuild the Table-2 fleet or allocate per
// key field.
func TestWarmHitAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	allocs := map[string]float64{}
	for _, c := range warmHitCases {
		if rec := warmHit(h, c.kind, c.body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up %s: %d %s", c.kind, rec.Code, rec.Body)
		}
		allocs[c.kind] = testing.AllocsPerRun(50, func() {
			if rec := warmHit(h, c.kind, c.body); rec.Header().Get("X-Simra-Cached") != "true" {
				t.Fatalf("%s missed the cache: %d %s", c.kind, rec.Code, rec.Body)
			}
		})
	}
	for _, kind := range []string{"workload", "scenario"} {
		if allocs[kind] > 2*allocs["sweep"] {
			t.Errorf("%s warm hit: %.0f allocs, want at most 2x the sweep hit's %.0f",
				kind, allocs[kind], allocs["sweep"])
		}
	}
}
