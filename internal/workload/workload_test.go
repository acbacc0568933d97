package workload

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analog"
	"repro/internal/bitserial"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
)

func testComputer(t *testing.T, profile dram.Profile, cols, maxX int) *bitserial.Computer {
	t.Helper()
	spec := dram.NewSpec("wl-test-"+profile.Name, profile, 0xfeed)
	spec.Columns = cols
	mod, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := bitserial.NewComputer(mod, sa, maxX)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 3 {
		t.Fatalf("want at least 3 built-in workloads, have %d", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if w.Name() == "" || w.Description() == "" {
			t.Fatalf("workload %T missing name or description", w)
		}
		if seen[w.Name()] {
			t.Fatalf("duplicate workload name %q", w.Name())
		}
		seen[w.Name()] = true
		got, err := Get(w.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != w.Name() {
			t.Fatalf("Get(%q) returned %q", w.Name(), got.Name())
		}
	}
	if _, err := Get("no-such-workload"); err == nil {
		t.Fatal("Get of unknown workload should fail")
	}
	for _, name := range []string{"bitmap-scan", "image-filter", "popcount-checksum"} {
		if !seen[name] {
			t.Fatalf("built-in workload %q missing (have %s)", name, Names())
		}
	}
}

// TestDifferentialAgainstReference is the differential satellite: at the
// nominal operating point (best timings, probed reliable lanes) every
// workload's in-DRAM output must equal its software reference bit for bit
// on every PUD-capable fleet profile.
func TestDifferentialAgainstReference(t *testing.T) {
	profiles := []dram.Profile{dram.ProfileH, dram.ProfileH640, dram.ProfileM}
	for _, p := range profiles {
		c := testComputer(t, p, 128, DefaultMaxX)
		for _, w := range All() {
			out, err := w.Run(c, 0xd1ff+nameSeed(w.Name()))
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, w.Name(), err)
			}
			if len(out.Got) == 0 || len(out.Got) != len(out.Want) {
				t.Fatalf("%s/%s: got %d elements, want %d", p.Name, w.Name(),
					len(out.Got), len(out.Want))
			}
			if out.Lanes == 0 {
				t.Fatalf("%s/%s: no reliable lanes", p.Name, w.Name())
			}
			for i := range out.Got {
				if out.Got[i] != out.Want[i] {
					t.Fatalf("%s/%s: element %d diverged: got %#x want %#x",
						p.Name, w.Name(), i, out.Got[i], out.Want[i])
				}
			}
			if Digest(out.Got) != Digest(out.Want) {
				t.Fatalf("%s/%s: digests diverged", p.Name, w.Name())
			}
		}
	}
}

// TestSamsungGuarded covers the third fleet profile: APA-guarded modules
// must yield non-viable results (with a reason) instead of failing the run.
func TestSamsungGuarded(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	cfg := DefaultFleetConfig()
	cfg.Entries = fleet.SamsungModules(fc)[:2]
	results, err := RunFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(All()); len(results) != want {
		t.Fatalf("want %d results, got %d", want, len(results))
	}
	for _, r := range results {
		if r.Viable {
			t.Fatalf("%s on %s: guarded module must not be viable", r.Workload, r.Module)
		}
		if r.Reason == "" {
			t.Fatalf("%s on %s: missing non-viability reason", r.Workload, r.Module)
		}
		if r.RefMatch() {
			t.Fatalf("%s on %s: non-viable result cannot match the reference", r.Workload, r.Module)
		}
	}
}

// TestFleetWorkerInvariance asserts the engine contract at the workload
// level: the full result set is bit-identical for 1 and 8 workers.
func TestFleetWorkerInvariance(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	base := DefaultFleetConfig()
	base.Entries = append(fleet.Representative(fc), fleet.SamsungModules(fc)[:1]...)

	cfg1 := base
	cfg1.Engine = engine.Config{Workers: 1}
	r1, err := RunFleet(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := base
	cfg8.Engine = engine.Config{Workers: 8}
	r8, err := RunFleet(context.Background(), cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("results differ between 1 and 8 workers")
	}
	if report(r1).Render() != report(r8).Render() {
		t.Fatal("rendered reports differ between 1 and 8 workers")
	}
}

// TestWorkloadSelectionInvariance asserts that a workload's result does
// not depend on which other workloads ran on the module before it.
func TestWorkloadSelectionInvariance(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	base := DefaultFleetConfig()
	base.Entries = fleet.Representative(fc)[:1]

	all, err := RunFleet(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	solo := base
	solo.Workloads = []Workload{All()[len(All())-1]}
	one, err := RunFleet(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("want 1 result, got %d", len(one))
	}
	if !reflect.DeepEqual(all[len(all)-1], one[0]) {
		t.Fatalf("result of %s changed with workload selection", one[0].Workload)
	}
}

// TestFleetCompositionInvariance asserts that a module's result does not
// depend on which sibling modules share the fleet: sub-seeds hash the
// module identity, not its fleet position.
func TestFleetCompositionInvariance(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	rep := fleet.Representative(fc)

	full := DefaultFleetConfig()
	full.Entries = rep
	full.Workloads = []Workload{BitmapScan{}}
	all, err := RunFleet(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	last := full
	last.Entries = rep[len(rep)-1:]
	solo, err := RunFleet(context.Background(), last)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 1 {
		t.Fatalf("want 1 result, got %d", len(solo))
	}
	if !reflect.DeepEqual(all[len(all)-1], solo[0]) {
		t.Fatalf("result of %s changed with fleet composition", solo[0].Module)
	}
}

// TestFleetReportsActivations pins that a fleet run reports the APAs its
// computers issued to the engine counters — one per majority operation —
// and that observing them leaves the results unchanged.
func TestFleetReportsActivations(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	base := DefaultFleetConfig()
	base.Entries = fleet.Representative(fc)
	base.Workloads = []Workload{BitmapScan{}}
	plain, err := RunFleet(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	observed := base
	observed.Stats = new(engine.Stats)
	got, err := RunFleet(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("engine stats changed the results")
	}
	want := 0
	for _, r := range got {
		for _, n := range r.Counts.MAJ {
			want += n
		}
	}
	if acts := observed.Stats.Snapshot().Activations; acts <= 0 || acts != int64(want) {
		t.Fatalf("activations = %d, want %d majority operations (> 0)", acts, want)
	}
}

func TestRunFleetValidation(t *testing.T) {
	cfg := DefaultFleetConfig()
	cfg.MaxX = 4
	if _, err := RunFleet(context.Background(), cfg); err == nil {
		t.Fatal("even MaxX should fail")
	}
	cfg.MaxX = 1
	if _, err := RunFleet(context.Background(), cfg); err == nil {
		t.Fatal("MaxX below 3 should fail")
	}
}

func TestResultAccounting(t *testing.T) {
	c := testComputer(t, dram.ProfileH, 128, 3)
	w := BitmapScan{}
	before := c.Counts()
	out, err := w.Run(c, 0xacc)
	if err != nil {
		t.Fatal(err)
	}
	out.Counts = countsDelta(before, c.Counts())
	r := newResult(w, "m", "H", "M", c, out)
	if !r.Viable {
		t.Fatal("result must be viable")
	}
	if r.TimeNS <= 0 || r.EnergyNJ <= 0 || r.ThroughputMbps <= 0 {
		t.Fatalf("accounting must be positive: time=%v energy=%v tput=%v",
			r.TimeNS, r.EnergyNJ, r.ThroughputMbps)
	}
	majOps := 0
	for _, n := range r.Counts.MAJ {
		majOps += n
	}
	if majOps == 0 {
		t.Fatal("bitmap scan must issue majority operations")
	}
	if r.SuccessRate() != 1 {
		t.Fatalf("success rate %v at nominal parameters", r.SuccessRate())
	}
	// Energy sanity: mW-scale draw over the modeled time implies
	// pJ-scale × count magnitudes; the total must sit between 1 pJ and
	// 1 mJ for any workload this size.
	if r.EnergyNJ < 1e-3 || r.EnergyNJ > 1e6 {
		t.Fatalf("energy %v nJ outside plausible range", r.EnergyNJ)
	}
}

func TestDigest(t *testing.T) {
	if Digest(nil) != Digest([]uint64{}) {
		t.Fatal("empty digests must agree")
	}
	a := Digest([]uint64{1, 2, 3})
	if a != Digest([]uint64{1, 2, 3}) {
		t.Fatal("digest must be deterministic")
	}
	if a == Digest([]uint64{1, 2, 4}) || a == Digest([]uint64{3, 2, 1}) {
		t.Fatal("digest must be value- and order-sensitive")
	}
}

func TestNamesListsAll(t *testing.T) {
	names := Names()
	for _, w := range All() {
		if !strings.Contains(names, w.Name()) {
			t.Fatalf("Names() %q missing %q", names, w.Name())
		}
	}
}

// keyLog is a memo that records every probed key and answers each probe
// with a hit, so a run enumerates its shard keys without simulating.
type keyLog struct{ keys []engine.ShardKey }

func (m *keyLog) Get(k engine.ShardKey) ([]Result, bool) {
	m.keys = append(m.keys, k)
	return nil, true
}

func (m *keyLog) Put(engine.ShardKey, []Result) {}

// TestModuleShardKeyKnownAnswer pins one `workload/module-shard/v1` key —
// the shared HashModule block plus the workload selection, MaxX and seed —
// to a fixed digest, as RunFleet computes it.
func TestModuleShardKeyKnownAnswer(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 512
	log := &keyLog{}
	cfg := FleetConfig{
		Entries:   fleet.Representative(fc)[:1],
		Workloads: []Workload{BitmapScan{}},
		Memo:      log,
	}
	if _, err := RunFleet(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(log.keys) != 1 {
		t.Fatalf("%d shard keys, want 1", len(log.keys))
	}
	const want = "e456878d1f9c5ca4d6fdb83bb70edfd50302e00a58d44f95a647b4345a021cca"
	if got := cache.KeyString(log.keys[0]); got != want {
		t.Errorf("module shard key %s, want %s", got, want)
	}
}
