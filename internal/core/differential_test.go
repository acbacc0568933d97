package core

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/bender"
	"repro/internal/dram"
	"repro/internal/timing"
)

// The differential suite is the acceptance bar of the trial-plane kernels:
// for every profile, timing mode, operation family, data pattern and trial
// count it runs the scalar per-trial reference and the packed kernel on
// identically built modules and requires byte-identical SuccessResults.
// Any divergence — a draw keyed differently, a fail mask composed wrong, a
// trial regrouping that isn't sound — shows up as a counter mismatch here.

// diffTrialCounts exercises the plane packing at word boundaries: a single
// trial, partial words, exactly one word, and one-beyond.
var diffTrialCounts = []int{1, 7, 8, 63, 64, 65}

// diffTimings covers all three electrical modes plus the share-mode
// viability cliff (t2 = 1.2 draws non-viable groups on some seeds).
var diffTimings = []struct {
	name string
	at   timing.APATimings
}{
	{"share", timing.APATimings{T1: 6, T2: 3}},
	{"share-cliff", timing.APATimings{T1: 6, T2: 1.2}},
	{"copy", timing.APATimings{T1: 40, T2: 3}},
	{"single", timing.APATimings{T1: 6, T2: 30}},
}

var diffProfiles = []dram.Profile{dram.ProfileH, dram.ProfileH640, dram.ProfileM, dram.ProfileS}

// diffPair builds two testers over separate but identically seeded
// modules (shared static tables, independent cell state): the suite runs
// the scalar oracle (scalar_test.go) on the first and the trial-plane
// kernels on the second.
func diffPair(t *testing.T, profile dram.Profile, trials int) (scalar, planes *Tester) {
	t.Helper()
	build := func() *Tester {
		spec := dram.NewSpec("diff-test", profile, 0xd1ff)
		spec.Columns = 192 // partial tail word: tail handling is under test
		m, err := dram.NewModule(spec, analog.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		tester, err := NewTester(m, WithTrials(trials), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return tester
	}
	return build(), build()
}

func diffGroups(t *testing.T, tester *Tester, n int) (*dram.Subarray, []bender.Group) {
	t.Helper()
	sa, err := tester.Module().Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := bender.SampleGroups(sa, tester.Module(), n, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	return sa, groups
}

func requireEqualResults(t *testing.T, label string, want, got SuccessResult) {
	t.Helper()
	if want != got {
		t.Errorf("%s: scalar %+v != planes %+v", label, want, got)
	}
}

func TestDifferentialManyRowActivation(t *testing.T) {
	for _, profile := range diffProfiles {
		for _, trials := range diffTrialCounts {
			sc, pl := diffPair(t, profile, trials)
			saS, groups := diffGroups(t, sc, 8)
			saP, _ := diffGroups(t, pl, 8)
			for _, tm := range diffTimings {
				for _, p := range []dram.Pattern{dram.PatternRandom, dram.Pattern00FF} {
					for gi, g := range groups {
						label := fmt.Sprintf("%s/%s trials=%d %s g%d",
							profile.Name, tm.name, trials, p, gi)
						want, err := sc.manyRowActivationScalar(saS, g, tm.at, p)
						if err != nil {
							t.Fatal(label, err)
						}
						got, err := pl.ManyRowActivation(saP, g, tm.at, p)
						if err != nil {
							t.Fatal(label, err)
						}
						requireEqualResults(t, label, want, got)
					}
				}
			}
		}
	}
}

func TestDifferentialMAJ(t *testing.T) {
	cases := []struct{ n, x int }{
		{8, 3},   // replicated MAJ3 with Frac leftovers
		{16, 5},  // MAJ5
		{16, 7},  // MAJ7 (at Mfr. M's MaxMAJ)
		{16, 11}, // beyond every profile's MaxMAJ: viability-bias path
	}
	for _, profile := range diffProfiles {
		if profile.APAGuarded {
			continue // Samsung: no share mode; covered by MRA single-mode
		}
		for _, trials := range diffTrialCounts {
			sc, pl := diffPair(t, profile, trials)
			for _, c := range cases {
				saS, groups := diffGroups(t, sc, c.n)
				saP, _ := diffGroups(t, pl, c.n)
				for _, tm := range diffTimings {
					for _, p := range []dram.Pattern{dram.PatternRandom, dram.PatternSplit} {
						for gi, g := range groups {
							label := fmt.Sprintf("%s/MAJ%d/%s trials=%d %s g%d",
								profile.Name, c.x, tm.name, trials, p, gi)
							want, err := sc.majScalar(saS, g, c.x, tm.at, p)
							if err != nil {
								t.Fatal(label, err)
							}
							got, err := pl.MAJ(saP, g, c.x, tm.at, p)
							if err != nil {
								t.Fatal(label, err)
							}
							requireEqualResults(t, label, want, got)
						}
					}
				}
			}
		}
	}
}

func TestDifferentialMultiRowCopy(t *testing.T) {
	for _, profile := range diffProfiles {
		for _, trials := range diffTrialCounts {
			sc, pl := diffPair(t, profile, trials)
			for _, n := range []int{2, 8} {
				saS, groups := diffGroups(t, sc, n)
				saP, _ := diffGroups(t, pl, n)
				for _, tm := range diffTimings {
					for _, p := range []dram.Pattern{dram.PatternRandom, dram.PatternAll1} {
						for gi, g := range groups {
							label := fmt.Sprintf("%s/copy%d/%s trials=%d %s g%d",
								profile.Name, n, tm.name, trials, p, gi)
							want, err := sc.multiRowCopyScalar(saS, g, tm.at, p)
							if err != nil {
								t.Fatal(label, err)
							}
							got, err := pl.MultiRowCopy(saP, g, tm.at, p)
							if err != nil {
								t.Fatal(label, err)
							}
							requireEqualResults(t, label, want, got)
						}
					}
				}
			}
		}
	}
}

// scalarSweep is the oracle of RunSweep for a Mitigation-free
// ManyRowActivation config: the same subarray samples and row groups,
// characterized in order by the scalar kernel.
func scalarSweep(t *testing.T, tester *Tester, cfg SweepConfig) []GroupOutcome {
	t.Helper()
	cfg = cfg.withDefaults()
	var out []GroupOutcome
	for _, s := range tester.SweepSamples(cfg) {
		sa, err := tester.subarray(s)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := tester.sampleGroups(sa, cfg.N, cfg.GroupsPerSubarray)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			r, err := tester.manyRowActivationScalar(sa, g, cfg.Timings, cfg.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, GroupOutcome{Sample: s, Group: g, Result: r})
		}
	}
	return out
}

// TestDifferentialSweep runs full sweeps — the integration path through
// engine sharding — on the plane kernels and requires the outcome stream
// the scalar oracle produces for the same samples and groups.
func TestDifferentialSweep(t *testing.T) {
	for _, tm := range []timing.APATimings{{T1: 6, T2: 3}, {T1: 40, T2: 3}} {
		cfg := SweepConfig{
			Op: OpManyRowActivation, N: 8,
			Timings: tm, Pattern: dram.PatternRandom,
			GroupsPerSubarray: 2, SubarraysPerBank: 1, Banks: 2,
		}
		sc, pl := diffPair(t, dram.ProfileH, 8)
		want := scalarSweep(t, sc, cfg)
		got, err := pl.RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got.Outcomes) {
			t.Fatalf("outcome counts differ: %d vs %d", len(want), len(got.Outcomes))
		}
		for i := range want {
			w, g := want[i], got.Outcomes[i]
			if w.Sample != g.Sample || w.Group.RF != g.Group.RF ||
				w.Group.RS != g.Group.RS || w.Result != g.Result {
				t.Fatalf("outcome %d differs:\nscalar %+v\nplanes %+v", i, w, g)
			}
		}
	}
}
