package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bender"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// smallConfig keeps scenario tests fast: two modules, minimal sampling.
func smallConfig() Config {
	cfg := DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	reps := fleet.Representative(fc)
	cfg.Fleet = []fleet.Entry{reps[0], reps[3]} // one H, one M
	cfg.Trials = 2
	cfg.GroupsPerSubarray = 2
	cfg.Banks = 1
	return cfg
}

// smallGrid is a 2×2 t2 × temperature matrix.
func smallGrid() Grid {
	return Grid{T2: []float64{1.5, 3.0}, Temp: []float64{50, 90}}
}

func TestPointsEnumeration(t *testing.T) {
	g := Grid{
		T2:       []float64{1.5, 3.0},
		Rows:     []int{16, 32},
		Patterns: []dram.Pattern{dram.PatternRandom, dram.PatternAll0},
	}.withDefaults(core.OpManyRowActivation)
	pts := g.points(core.OpManyRowActivation)
	if len(pts) != 2*2*2 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	// Canonical nesting: rows outermost, then pattern, then t2.
	if pts[0].N != 16 || pts[4].N != 32 {
		t.Fatalf("rows not outermost: %+v", pts)
	}
	if pts[0].T2 != 1.5 || pts[1].T2 != 3.0 {
		t.Fatalf("t2 not innermost among the set: %+v", pts[:2])
	}
	// Unset axes collapse to the nominal point.
	if pts[0].TempC != 50 || pts[0].VPP != 2.5 || pts[0].Aging != 0 {
		t.Fatalf("unset axes not nominal: %+v", pts[0])
	}
	if pts[0].T1 != 3.0 { // BestSiMRA
		t.Fatalf("t1 default not BestSiMRA: %+v", pts[0])
	}
}

func TestGridDefaultsPerOp(t *testing.T) {
	maj := Grid{}.withDefaults(core.OpMAJ).points(core.OpMAJ)[0]
	if maj.T1 != 1.5 || maj.T2 != 3.0 || maj.X != 3 {
		t.Fatalf("MAJ defaults: %+v", maj)
	}
	cp := Grid{}.withDefaults(core.OpMultiRowCopy).points(core.OpMultiRowCopy)[0]
	if cp.T1 != 36.0 || cp.T2 != 3.0 {
		t.Fatalf("copy defaults: %+v", cp)
	}
}

func TestGridScan(t *testing.T) {
	cfg := smallConfig()
	cfg.Grid = smallGrid()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(res.Points))
	}
	for _, pr := range res.Points {
		if pr.Pooled.N == 0 {
			t.Fatalf("point %+v pooled no groups", pr.Point)
		}
		if len(pr.Modules) != 2 {
			t.Fatalf("point %+v has %d module cells, want 2", pr.Point, len(pr.Modules))
		}
	}
	// The t2 = 1.5 ns cliff (Obs. 2): success at t2=1.5 must sit well
	// below t2=3.0 at the same temperature.
	lo, hi := res.Points[0], res.Points[2]
	if lo.Point.T2 != 1.5 || hi.Point.T2 != 3.0 || lo.Point.TempC != hi.Point.TempC {
		t.Fatalf("unexpected point order: %+v vs %+v", lo.Point, hi.Point)
	}
	if lo.Pooled.Mean >= hi.Pooled.Mean {
		t.Fatalf("no t2 cliff: mean %.4f at t2=1.5 vs %.4f at t2=3.0",
			lo.Pooled.Mean, hi.Pooled.Mean)
	}
	if res.Stats.ShardsTotal == 0 || res.Stats.ShardsDone != res.Stats.ShardsTotal {
		t.Fatalf("stats %+v: want all shards done", res.Stats)
	}
}

// TestGridScanMemo is the PR's acceptance criterion at the subsystem
// level: repeating a grid scan against a shared shard memo reports cached
// shards and returns bit-identical results in all three modes (off, cold,
// warm).
func TestGridScanMemo(t *testing.T) {
	run := func(memo *cache.Typed[[]core.GroupOutcome]) (*Result, string) {
		cfg := smallConfig()
		cfg.Grid = smallGrid()
		cfg.Engine.Workers = 4
		if memo != nil {
			cfg.Memo = memo
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteReport(&b, res, "text"); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}

	plain, plainOut := run(nil)
	store := cache.New(0)
	memo := cache.NewTyped[[]core.GroupOutcome](store, nil)
	cold, coldOut := run(memo)
	warm, warmOut := run(memo)

	if plainOut != coldOut || plainOut != warmOut {
		t.Fatal("report bytes differ across cache modes")
	}
	if !reflect.DeepEqual(plain.Points, cold.Points) || !reflect.DeepEqual(plain.Points, warm.Points) {
		t.Fatal("structured results differ across cache modes")
	}
	if cold.Stats.ShardsCached != 0 {
		t.Fatalf("cold run reported %d cached shards; want 0", cold.Stats.ShardsCached)
	}
	if warm.Stats.ShardsCached == 0 || warm.Stats.ShardsCached != warm.Stats.ShardsTotal {
		t.Fatalf("warm run stats %+v; want every shard served from the memo", warm.Stats)
	}
	if warm.Stats.Activations != 0 {
		t.Fatalf("warm run issued %d activations; want 0 (pure cache)", warm.Stats.Activations)
	}
}

func TestEnvelopeMinViableT2(t *testing.T) {
	cfg := smallConfig()
	cfg.Envelope = &Envelope{Axis: "t2", Target: 0.9}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells, want one per module", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Status != StatusMinViable {
			t.Fatalf("module %s: status %q, want %q (rates %.4f → %.4f)",
				c.Module, c.Status, StatusMinViable, c.RateLo, c.RateHi)
		}
		if c.Boundary <= c.Lo || c.Boundary >= c.Hi {
			t.Fatalf("module %s: boundary %.3f outside (%g, %g)", c.Module, c.Boundary, c.Lo, c.Hi)
		}
		if c.RateLo >= 0.9 || c.RateHi < 0.9 {
			t.Fatalf("module %s: endpoint rates %.4f/%.4f inconsistent with a rising cliff",
				c.Module, c.RateLo, c.RateHi)
		}
	}
}

func TestEnvelopeStatuses(t *testing.T) {
	run := func(target float64) []EnvelopeCell {
		cfg := smallConfig()
		cfg.Envelope = &Envelope{Axis: "t2", Target: target}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cells
	}
	// A target below every measured rate: the whole range passes.
	for _, c := range run(0.01) {
		if c.Status != StatusPass {
			t.Fatalf("target 1%%: status %q, want pass", c.Status)
		}
		if c.Boundary != c.Lo {
			t.Fatalf("pass cell boundary %.3f, want lo %g", c.Boundary, c.Lo)
		}
	}
	// An unreachable target: every cell fails.
	for _, c := range run(0.999999) {
		if c.Status != StatusFail {
			t.Fatalf("target ~100%%: status %q, want fail", c.Status)
		}
	}
}

// TestEnvelopeSharesGridCache pins the key-family claim: a grid scan that
// visited the envelope's endpoint probes warms the envelope search, which
// then reports cached shards.
func TestEnvelopeSharesGridCache(t *testing.T) {
	store := cache.New(0)
	memo := cache.NewTyped[[]core.GroupOutcome](store, nil)

	grid := smallConfig()
	grid.Grid = Grid{T2: []float64{1.5, 12}}
	grid.Memo = memo
	if _, err := Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}

	env := smallConfig()
	env.Envelope = &Envelope{Axis: "t2"} // default bounds [1.5, 12]
	env.Memo = memo
	res, err := Run(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsCached == 0 {
		t.Fatalf("envelope search hit no grid-scan shards: %+v", res.Stats)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad rows", func(c *Config) { c.Grid.Rows = []int{3} }, "powers of two"},
		{"maj too wide for rows", func(c *Config) {
			c.Op = core.OpMAJ
			c.Grid.Rows = []int{4}
			c.Grid.MAJX = []int{5}
		}, "at least"},
		{"even maj", func(c *Config) {
			c.Op = core.OpMAJ
			c.Grid.MAJX = []int{4}
		}, "odd"},
		{"bad env", func(c *Config) { c.Grid.Temp = []float64{200} }, "outside supported range"},
		{"bad aging", func(c *Config) { c.Grid.Aging = []float64{99} }, "aging"},
		{"bad envelope axis", func(c *Config) { c.Envelope = &Envelope{Axis: "frequency"} }, "unknown envelope axis"},
		{"bad target", func(c *Config) { c.Envelope = &Envelope{Axis: "t2", Target: 1.5} }, "target"},
		{"empty bounds", func(c *Config) { c.Envelope = &Envelope{Axis: "t2", Lo: 5, Hi: 2} }, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			tc.mut(&cfg)
			_, err := Run(context.Background(), cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestShardKeySensitivity(t *testing.T) {
	cfg := smallConfig()
	spec := cfg.Fleet[0].Spec
	p := Point{N: 8, X: 3, T1: 3, T2: 3, TempC: 50, VPP: 2.5}
	at := func(p Point, bank int) [32]byte {
		return shardKey(spec, dram.FormatParams(cfg.Params), core.OpManyRowActivation, p,
			cfg.Trials, cfg.SubarraysPerBank, cfg.GroupsPerSubarray, cfg.Banks,
			cfg.Seed, sampleAt(bank, 0))
	}
	base := at(p, 0)
	if at(p, 0) != base {
		t.Fatal("shard key is not deterministic")
	}
	if at(p, 1) == base {
		t.Fatal("key ignores the bank coordinate")
	}
	for name, mut := range map[string]func(Point) Point{
		"t2":    func(p Point) Point { p.T2 += 1.5; return p },
		"temp":  func(p Point) Point { p.TempC = 90; return p },
		"vpp":   func(p Point) Point { p.VPP = 2.1; return p },
		"aging": func(p Point) Point { p.Aging = 5; return p },
		"n":     func(p Point) Point { p.N = 16; return p },
	} {
		if at(mut(p), 0) == base {
			t.Fatalf("key ignores the %s axis", name)
		}
	}
}

func sampleAt(bank, subarray int) bender.SubarraySample {
	return bender.SubarraySample{Bank: bank, Subarray: subarray}
}

// TestGridTableReuse pins the static-table sharing the grid relies on:
// every (point, module, bank, subarray) shard builds a private module
// instance, but instances with the same simulation identity share one
// derived table set in dram's registry. A repeated scan — all-fresh
// private instances — must therefore derive nothing new; before the
// registry, every shard of every point re-derived its per-cell tables.
func TestGridTableReuse(t *testing.T) {
	cfg := smallConfig()
	cfg.Grid = smallGrid()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	statics0, cells0 := dram.TableDerivations()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	statics1, cells1 := dram.TableDerivations()
	if statics1 != statics0 || cells1 != cells0 {
		t.Fatalf("repeat scan re-derived static tables: sets %d→%d, cell rows %d→%d",
			statics0, statics1, cells0, cells1)
	}
}

// keyLog is a memo that records every probed key and answers each probe
// with a hit, so a run enumerates its shard keys without simulating.
type keyLog struct{ keys []engine.ShardKey }

func (m *keyLog) Get(k engine.ShardKey) ([]core.GroupOutcome, bool) {
	m.keys = append(m.keys, k)
	return nil, true
}

func (m *keyLog) Put(engine.ShardKey, []core.GroupOutcome) {}

// TestPointShardKeyKnownAnswer pins the first `scenario/point-shard/v1`
// key of a grid scan — the shared HashModule block plus the point,
// sampling bounds, trials, seed and coordinates — to a fixed digest, as
// Run computes it. The run itself reports an error (every shard is a
// memo hit with no groups); only the keys matter here.
func TestPointShardKeyKnownAnswer(t *testing.T) {
	cfg := smallConfig()
	log := &keyLog{}
	cfg.Memo = log
	_, _ = Run(context.Background(), cfg)
	if len(log.keys) == 0 {
		t.Fatal("grid scan probed no shard keys")
	}
	const want = "7e6d4d4ca5a98d9025927c1ddb9e9374e6911fe0bc6230ae665be91ff2b90eb2"
	if got := cache.KeyString(log.keys[0]); got != want {
		t.Errorf("first point shard key %s, want %s (%d keys)", got, want, len(log.keys))
	}
}
