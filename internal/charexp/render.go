package charexp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/decoder"
)

// figureIDs lists the ids RunFigure accepts, in the print order
// cmd/simra-char uses for -fig all. "table1" and "14" need no
// simulation; the rest execute sweeps on the runner's engine.
var figureIDs = []string{
	"table1", "14", "3", "4a", "4b", "5", "6", "7", "8", "9", "10",
	"11", "12a", "12b", "15", "modules", "16", "17",
}

// FigureIDs returns the ids RunFigure accepts, in print order.
func FigureIDs() []string { return slices.Clone(figureIDs) }

// CheckFigure returns the figure RunFigure runs for id: id itself, or
// "14" for "13", since Figs. 13 and 14 are one decoder walkthrough. An
// id outside FigureIDs is an error whose message ends in the "valid: …"
// list that the serving layer's 422 envelope parses into valid_options.
func CheckFigure(id string) (string, error) {
	if id == "13" {
		return "14", nil
	}
	if slices.Contains(figureIDs, id) {
		return id, nil
	}
	return "", fmt.Errorf("unknown figure %q; valid: %s", id, strings.Join(figureIDs, ", "))
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
	fig, err := CheckFigure(id)
	if err != nil {
		return "", fmt.Errorf("charexp: %w", err)
	}
	if sets <= 0 {
		sets = 200
	}
	t, err := r.figureTable(fig, sets)
	if err != nil {
		return "", fmt.Errorf("charexp: figure %s: %w", id, err)
	}
	var b strings.Builder
	err = Write(&b, t, format)
	return b.String(), err
}

// figureTable runs the figure a CheckFigure id names: a grid figure
// through its declaration, the others by name.
func (r *Runner) figureTable(id string, sets int) (Table, error) {
	if f := gridFigureFor(id); f != nil {
		return tableOf(r.runGrid(f))
	}
	switch id {
	case "table1":
		return TablePopulation(r.cfg.Fleet), nil
	case "14":
		return DecoderWalkthrough(decoder.Hynix512())
	case "5":
		return tableOf(r.Figure5())
	case "15":
		return tableOf(r.Figure15(sets))
	case "modules":
		return tableOf(r.PerModule())
	case "16":
		return tableOf(r.Figure16())
	default: // "17", the one id CheckFigure leaves
		return tableOf(r.Figure17())
	}
}

// tableOf renders a figure result, or passes its error on.
func tableOf[R interface{ Table() Table }](res R, err error) (Table, error) {
	if err != nil {
		return Table{}, err
	}
	return res.Table(), nil
}
