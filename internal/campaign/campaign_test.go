package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/invariance"
	"repro/internal/workload"
)

// testConfig is the reduced campaign every test in this file runs: the
// default Table-2 search at 128 columns, all candidates ranked.
func testConfig(workers int) Config {
	cfg, err := (Options{Columns: 128, Top: 34, Workers: workers}).Resolve()
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestInvariances runs the shared metamorphic suite over the campaign
// runner: report bytes must be identical across worker counts and cache
// modes, and every candidate's evaluation — keyed by its mix vector —
// must be unchanged. Both memo tiers (phase-1 module shards and phase-2
// candidate evaluations) share the variant's store.
func TestInvariances(t *testing.T) {
	invariance.Check(t, invariance.Subject{
		Name: "campaign",
		Run: func(t *testing.T, v invariance.Variant) (string, map[string]string) {
			t.Helper()
			cfg := testConfig(v.Workers)
			if v.Store != nil {
				cfg.ModMemo = cache.NewTyped[[]workload.Result](v.Store, nil)
				cfg.Memo = cache.NewTyped[Eval](v.Store, nil)
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := WriteReport(&b, res, "text"); err != nil {
				t.Fatal(err)
			}
			units := make(map[string]string, len(res.Candidates))
			for _, c := range res.Candidates {
				key := make([]string, len(c.Counts))
				for i, n := range c.Counts {
					key[i] = string(rune('0' + n))
				}
				units[invariance.UnitKey(key...)] = invariance.Sprint(c.Eval)
			}
			return b.String(), units
		},
		Cacheable: true,
	})
}

// TestWarmCampaignSkipsCandidateShards is the cache-addressing contract:
// a second campaign over a warmed store must serve every phase-1 module
// shard and every phase-2 candidate evaluation from the memo, executing
// nothing.
func TestWarmCampaignSkipsCandidateShards(t *testing.T) {
	store := cache.New(0)
	run := func() *Result {
		cfg := testConfig(1)
		cfg.ModMemo = cache.NewTyped[[]workload.Result](store, nil)
		cfg.Memo = cache.NewTyped[Eval](store, nil)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.Stats.ShardsCached != 0 {
		t.Fatalf("cold campaign reported %d cached shards", cold.Stats.ShardsCached)
	}
	warm := run()
	if warm.Stats.ShardsCached != warm.Stats.ShardsDone {
		t.Fatalf("warm campaign executed %d of %d shards; want all served from the memo",
			warm.Stats.ShardsDone-warm.Stats.ShardsCached, warm.Stats.ShardsDone)
	}
	if len(warm.Candidates) != len(cold.Candidates) {
		t.Fatalf("warm campaign ranked %d candidates, cold ranked %d",
			len(warm.Candidates), len(cold.Candidates))
	}
	for i := range warm.Candidates {
		if warm.Candidates[i].Eval != cold.Candidates[i].Eval {
			t.Fatalf("candidate %d drifted between cold and warm runs", i)
		}
	}
}

// TestModuleGroups pins the Table-2 die-group partition the search
// composes over.
func TestModuleGroups(t *testing.T) {
	groups := ModuleGroups(fleet.DefaultConfig())
	wantCaps := map[string]int{
		"H/M/512": 4, "H/M/640": 3, "H/A/512": 5, "M/E/1024": 4, "M/B/1024": 2,
	}
	if len(groups) != len(wantCaps) {
		t.Fatalf("got %d die groups, want %d", len(groups), len(wantCaps))
	}
	for _, g := range groups {
		if want, ok := wantCaps[g.Label]; !ok || len(g.Entries) != want {
			t.Fatalf("group %q has %d entries, want %d", g.Label, len(g.Entries), want)
		}
	}
}

// TestCompositions checks the candidate enumeration: every count vector
// sums to the total, respects its group capacity, appears once, and the
// sequence is lexicographic (the deterministic ranking tiebreaker).
func TestCompositions(t *testing.T) {
	caps := []int{4, 3, 5, 4, 2}
	mixes := compositions(caps, 3)
	if len(mixes) != 34 {
		t.Fatalf("got %d compositions of 3 over %v, want 34", len(mixes), caps)
	}
	seen := map[string]bool{}
	prev := ""
	for _, m := range mixes {
		sum := 0
		var key strings.Builder
		for i, n := range m {
			if n < 0 || n > caps[i] {
				t.Fatalf("composition %v exceeds capacity %v", m, caps)
			}
			sum += n
			key.WriteByte(byte('0' + n))
		}
		if sum != 3 {
			t.Fatalf("composition %v sums to %d, want 3", m, sum)
		}
		k := key.String()
		if seen[k] {
			t.Fatalf("composition %v enumerated twice", m)
		}
		seen[k] = true
		if k <= prev {
			t.Fatalf("enumeration not lexicographic: %q after %q", k, prev)
		}
		prev = k
	}
}

// TestCandidateKeys asserts content addressing: equal mixes hash to equal
// shard keys, distinct mixes to distinct keys.
func TestCandidateKeys(t *testing.T) {
	pb := dram.FormatParams(testConfig(1).Params)
	groups := ModuleGroups(fleet.DefaultConfig())
	a := candidateKey(candidateEntries(groups, []int{3, 0, 0, 0, 0}),
		pb, "bitmap-scan", 5, 1)
	b := candidateKey(candidateEntries(groups, []int{3, 0, 0, 0, 0}),
		pb, "bitmap-scan", 5, 1)
	c := candidateKey(candidateEntries(groups, []int{2, 1, 0, 0, 0}),
		pb, "bitmap-scan", 5, 1)
	if a != b {
		t.Fatal("identical mixes hashed to different candidate keys")
	}
	if a == c {
		t.Fatal("distinct mixes hashed to the same candidate key")
	}
	if d := candidateKey(candidateEntries(groups, []int{3, 0, 0, 0, 0}),
		pb, "image-filter", 5, 1); d == a {
		t.Fatal("workload name not part of the candidate key")
	}
}

// TestRanking checks the report contract: ranks are 1..N, scores
// non-increasing, and equal scores keep enumeration order.
func TestRanking(t *testing.T) {
	res, err := Run(context.Background(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 34 || len(res.Candidates) != 34 {
		t.Fatalf("ranked %d of %d candidates, want 34 of 34", len(res.Candidates), res.Total)
	}
	for i, c := range res.Candidates {
		if c.Rank != i+1 {
			t.Fatalf("candidate %d carries rank %d", i, c.Rank)
		}
		if len(c.Modules) != res.FleetSize {
			t.Fatalf("rank %d deploys %d modules, want %d", c.Rank, len(c.Modules), res.FleetSize)
		}
		if c.Score < 0 {
			t.Fatalf("rank %d has negative score %v", c.Rank, c.Score)
		}
		if i > 0 && c.Score > res.Candidates[i-1].Score {
			t.Fatalf("rank %d score %v exceeds rank %d score %v",
				c.Rank, c.Score, i, res.Candidates[i-1].Score)
		}
	}
}

// TestErrors exercises the validation surface of both Run and Resolve —
// every message carries the "; valid: ..." suffix the serving layer's 422
// envelope parses into valid_options.
func TestErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil ||
		!strings.Contains(err.Error(), "no target workload") {
		t.Fatalf("Run without workload: %v", err)
	}
	cfg := testConfig(1)
	cfg.FleetSize = MaxFleetSize + 1
	if _, err := Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "valid: 1, 2, 3, 4, 5, 6") {
		t.Fatalf("oversized fleet: %v", err)
	}
	if _, err := (Options{Workload: "quantum-sort"}).Resolve(); err == nil ||
		!strings.Contains(err.Error(), "valid: ") ||
		!strings.Contains(err.Error(), "bitmap-scan") {
		t.Fatalf("unknown workload: %v", err)
	}
	if _, err := (Options{FleetSize: -1}).Resolve(); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("negative fleet size: %v", err)
	}
	if _, err := (Options{Top: -1}).Resolve(); err == nil ||
		!strings.Contains(err.Error(), ">= 0") {
		t.Fatalf("negative top: %v", err)
	}
	var b bytes.Buffer
	if err := WriteReport(&b, &Result{}, "yaml"); err == nil ||
		!strings.Contains(err.Error(), "valid: text, csv, columnar") {
		t.Fatalf("unknown format: %v", err)
	}
}

// keyLog is a memo that records every probed key and answers each probe
// with a hit, so a run enumerates its keys without simulating.
type keyLog[T any] struct{ keys []engine.ShardKey }

func (m *keyLog[T]) Get(k engine.ShardKey) (T, bool) {
	m.keys = append(m.keys, k)
	var zero T
	return zero, true
}

func (m *keyLog[T]) Put(engine.ShardKey, T) {}

// TestCandidateKeyKnownAnswer pins the first and last
// `campaign/candidate/v1` keys — the HashModule block of every deployed
// module plus the workload, MaxX and seed — to fixed digests, as Run
// computes them.
func TestCandidateKeyKnownAnswer(t *testing.T) {
	cfg := testConfig(1)
	log := &keyLog[Eval]{}
	cfg.ModMemo = &keyLog[[]workload.Result]{}
	cfg.Memo = log
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(log.keys) == 0 {
		t.Fatal("campaign probed no candidate keys")
	}
	want := [2]string{
		"b0017fd7557bb7e05d005ea4ba14c6bd6e01f748e59f0bd096c7ea9e43f2d509",
		"61cfe096fe8547eff8aa33477087cdd3148a23a63ddfca4731ad43462fb68ca0",
	}
	got := [2]string{cache.KeyString(log.keys[0]), cache.KeyString(log.keys[len(log.keys)-1])}
	if got != want {
		t.Errorf("first/last candidate keys %v, want %v (%d keys)", got, want, len(log.keys))
	}
}
