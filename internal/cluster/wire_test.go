package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// peerBodies runs run against a coordinator whose only worker is a Peer
// and returns every request body the Peer sent, sorted. The peer node
// behind httptest computes each shard on an in-process group, so the run
// completes with real results.
func peerBodies(t *testing.T, run func(*cluster.Coordinator)) [][]byte {
	t.Helper()
	group := cluster.NewGroup("remote", cache.New(0), nil, nil)
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := []byte(readAll(r))
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		var req cluster.Request
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := group.Exec(r.Context(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(out)
	}))
	defer ts.Close()
	run(cluster.New(nil, cluster.NewPeer(ts.URL, "")))
	slices.SortFunc(bodies, bytes.Compare)
	return bodies
}

// TestPeerWireKnownAnswer pins the exact bytes a Peer sends for one core
// shard (a Fig. 3 sweep shard of charCfg) and one workload shard (the
// first module of workCfg): the lowest-sorting request body of each run
// must equal its golden file. Peers and /v1/internal/shard read these
// bytes, so any change to how a coordinator hands specs to its workers
// must leave them as they are.
func TestPeerWireKnownAnswer(t *testing.T) {
	cases := []struct {
		golden string
		run    func(t *testing.T, c *cluster.Coordinator)
	}{
		{"peer_core.json", func(t *testing.T, c *cluster.Coordinator) {
			cfg := charCfg()
			cfg.Dispatch = c
			r, err := charexp.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Figure3(); err != nil {
				t.Fatal(err)
			}
		}},
		{"peer_workload.json", func(t *testing.T, c *cluster.Coordinator) {
			cfg := workCfg()
			cfg.Dispatch = c
			if _, err := workload.RunFleet(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			bodies := peerBodies(t, func(co *cluster.Coordinator) { c.run(t, co) })
			if len(bodies) == 0 {
				t.Fatal("no shard reached the peer")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := bodies[0]; !bytes.Equal(got, bytes.TrimSuffix(want, []byte("\n"))) {
				t.Fatalf("peer request body drifted from testdata/%s\n got: %s\nwant: %s", c.golden, got, want)
			}
		})
	}
}
