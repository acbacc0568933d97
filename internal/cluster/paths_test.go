package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/charexp"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/workload"
)

// shardCall is one dispatched shard as the coordinator received it.
type shardCall struct {
	key  engine.ShardKey
	kind string
	spec any
}

// recordDispatch is an engine.Dispatcher that records every shard spec
// value before handing it to the wrapped coordinator.
type recordDispatch struct {
	d     engine.Dispatcher
	mu    sync.Mutex
	calls []shardCall
}

func (r *recordDispatch) ExecShard(ctx context.Context, key engine.ShardKey, kind string, spec any) ([]byte, error) {
	r.mu.Lock()
	r.calls = append(r.calls, shardCall{key, kind, spec})
	r.mu.Unlock()
	return r.d.ExecShard(ctx, key, kind, spec)
}

// TestSpecPathsAgree is the differential test of the two ways a shard
// spec reaches a worker: as a typed value (in-process groups) and as
// wire bytes (Group.Exec with only Spec, and a Peer posting to a node's
// /v1/internal/shard). For every shard that charexp, scenario and
// workload dispatch, all three give identical result bytes, and every
// in-process spec carries the params block its Params format to.
func TestSpecPathsAgree(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	peer := cluster.NewPeer(ts.URL, "")

	coord, _ := fleetCoord(2, nil)
	rec := &recordDispatch{d: coord}
	ccfg := charCfg()
	ccfg.Dispatch = rec
	r, err := charexp.NewRunner(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Figure3(); err != nil {
		t.Fatal(err)
	}
	scfg := scenCfg()
	scfg.Dispatch = rec
	if _, err := scenario.Run(context.Background(), scfg); err != nil {
		t.Fatal(err)
	}
	wcfg := workCfg()
	wcfg.Dispatch = rec
	if _, err := workload.RunFleet(context.Background(), wcfg); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, c := range rec.calls {
		kinds[c.kind]++
		switch s := c.spec.(type) {
		case core.ShardSpec:
			if want := dram.FormatParams(s.Params); s.Block != want {
				t.Fatalf("core spec %s carries block %q; want %q", s.Spec.ID, s.Block, want)
			}
		case workload.ShardSpec:
			if want := dram.FormatParams(s.Params); s.Block != want {
				t.Fatalf("workload spec %s carries block %q; want %q", s.Entry.Spec.ID, s.Block, want)
			}
		default:
			t.Fatalf("dispatched spec of type %T", c.spec)
		}
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		key := cache.KeyString(c.key)
		typed, err := cluster.NewGroup("typed", cache.New(0), nil, nil).Exec(context.Background(),
			cluster.Request{Key: key, Kind: c.kind, Value: c.spec})
		if err != nil {
			t.Fatal(err)
		}
		wire, err := cluster.NewGroup("wire", cache.New(0), nil, nil).Exec(context.Background(),
			cluster.Request{Key: key, Kind: c.kind, Spec: raw})
		if err != nil {
			t.Fatal(err)
		}
		remote, err := peer.Exec(context.Background(), cluster.Request{Key: key, Kind: c.kind, Value: c.spec})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(typed, wire) || !bytes.Equal(typed, remote) {
			t.Fatalf("%s shard %s: typed, wire and /v1/internal/shard results differ\ntyped:  %s\nwire:   %s\nremote: %s",
				c.kind, key, typed, wire, remote)
		}
	}
	if kinds[cluster.KindCore] == 0 || kinds[cluster.KindWorkload] == 0 {
		t.Fatalf("dispatched kinds %v; want both core and workload shards", kinds)
	}
}
