package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
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
			hit := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+c.kind+"?raw=1", strings.NewReader(c.body)))
				return rec
			}
			if rec := hit(); rec.Code != http.StatusOK {
				b.Fatalf("warm-up %s: %d %s", c.kind, rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := hit(); rec.Header().Get("X-Simra-Cached") != "true" {
					b.Fatalf("%s request %d missed the cache: %d %s", c.kind, i, rec.Code, rec.Body)
				}
			}
		})
	}
}
