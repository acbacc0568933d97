package charexp

import (
	"fmt"
	"strings"

	"repro/internal/decoder"
)

// FigureIDs lists the ids RunFigure accepts, in the print order
// cmd/simra-char uses for -fig all. "table1" and "14" need no simulation;
// the rest execute sweeps on the runner's engine.
func FigureIDs() []string {
	return []string{
		"table1", "14", "3", "4a", "4b", "5", "6", "7", "8", "9", "10",
		"11", "12a", "12b", "15", "modules", "16", "17",
	}
}

// RunFigure executes one figure or table by id and renders it in the
// given format (text for the aligned table, csv for plotting, columnar
// for the typed stream). sets bounds the Fig. 15 Monte-Carlo sampling
// (0 = 200). The rendering is the single source of truth shared by
// cmd/simra-char and the serving layer (internal/server), so a served
// sweep response is byte-identical to the CLI's table output.
func (r *Runner) RunFigure(id string, sets int, format string) (string, error) {
	if err := CheckFormat(format); err != nil {
		return "", err
	}
	if sets <= 0 {
		sets = 200
	}
	render := func(t Table) (string, error) {
		var b strings.Builder
		err := Write(&b, t, format)
		return b.String(), err
	}
	switch id {
	case "table1":
		return render(TablePopulation(r.cfg.Fleet))
	case "13", "14":
		tab, err := DecoderWalkthrough(decoder.Hynix512())
		if err != nil {
			return "", err
		}
		return render(tab)
	}
	runners := map[string]func() (interface{ Table() Table }, error){
		"3":       func() (interface{ Table() Table }, error) { return r.Figure3() },
		"4a":      func() (interface{ Table() Table }, error) { return r.Figure4a() },
		"4b":      func() (interface{ Table() Table }, error) { return r.Figure4b() },
		"5":       func() (interface{ Table() Table }, error) { return r.Figure5() },
		"6":       func() (interface{ Table() Table }, error) { return r.Figure6() },
		"7":       func() (interface{ Table() Table }, error) { return r.Figure7() },
		"8":       func() (interface{ Table() Table }, error) { return r.Figure8() },
		"9":       func() (interface{ Table() Table }, error) { return r.Figure9() },
		"10":      func() (interface{ Table() Table }, error) { return r.Figure10() },
		"11":      func() (interface{ Table() Table }, error) { return r.Figure11() },
		"12a":     func() (interface{ Table() Table }, error) { return r.Figure12a() },
		"12b":     func() (interface{ Table() Table }, error) { return r.Figure12b() },
		"15":      func() (interface{ Table() Table }, error) { return r.Figure15(sets) },
		"modules": func() (interface{ Table() Table }, error) { return r.PerModule() },
		"16":      func() (interface{ Table() Table }, error) { return r.Figure16() },
		"17":      func() (interface{ Table() Table }, error) { return r.Figure17() },
	}
	run, ok := runners[id]
	if !ok {
		return "", fmt.Errorf("charexp: unknown figure %q", id)
	}
	res, err := run()
	if err != nil {
		return "", fmt.Errorf("charexp: figure %s: %w", id, err)
	}
	return render(res.Table())
}
