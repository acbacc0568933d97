package charexp

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/goldenfile"
)

// TestGoldenFigure3Sweep pins one full characterization sweep: the Fig. 3
// timing sweep over the representative fleet, rendered as the paper-style
// table. The run must be byte-identical for 1 and 8 workers (the engine's
// determinism contract) and byte-identical to the committed golden (the
// cross-session regression anchor the unit tests cannot provide).
func TestGoldenFigure3Sweep(t *testing.T) {
	render := func(workers int) string {
		fc := fleet.DefaultConfig()
		fc.Columns = 512
		cfg := Config{
			Fleet:             fleet.Representative(fc),
			Params:            analog.DefaultParams(),
			Trials:            4,
			GroupsPerSubarray: 6,
			SubarraysPerBank:  1,
			Banks:             2,
			Seed:              0xd5a,
			Engine:            engine.Config{Workers: workers},
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Figure3()
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().Render()
	}
	r1 := render(1)
	r8 := render(8)
	if r1 != r8 {
		t.Fatal("Figure 3 table differs between 1 and 8 workers")
	}
	goldenfile.Check(t, "testdata", "figure3.golden", r1)
}

// TestGoldenGridFigures pins the text rendering of every grid figure at
// smallConfig: the id, title, header and every row. csv and columnar are
// built from the same strings, so the text bytes pin them too. Each
// figure must render the same bytes at 1 and 8 workers.
func TestGoldenGridFigures(t *testing.T) {
	for _, id := range gridFigureIDs {
		t.Run("fig"+id, func(t *testing.T) {
			render := func(workers int) string {
				cfg := smallConfig()
				cfg.Engine.Workers = workers
				r, err := NewRunner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := r.RunFigure(id, 0, FormatText)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			r1 := render(1)
			if r8 := render(8); r1 != r8 {
				t.Fatalf("figure %s text differs between 1 and 8 workers", id)
			}
			goldenfile.Check(t, "testdata", "grid_fig"+id+".golden", r1)
		})
	}
}
