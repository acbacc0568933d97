package charexp

import (
	"fmt"

	"repro/internal/power"
)

// Figure5Result is the power comparison of Fig. 5.
type Figure5Result struct {
	SiMRAmW    map[int]float64    // rows → mW
	StandardMW map[string]float64 // op label → mW
	Margin32   float64            // fraction 32-row sits below REF
}

// Figure5 evaluates the power model (Obs. 5).
func (r *Runner) Figure5() (Figure5Result, error) {
	m := power.Default()
	if err := m.Validate(); err != nil {
		return Figure5Result{}, err
	}
	out := Figure5Result{
		SiMRAmW:    make(map[int]float64, len(ActivationRows)),
		StandardMW: make(map[string]float64, len(power.Ops)),
	}
	for _, n := range ActivationRows {
		p, err := m.SiMRA(n)
		if err != nil {
			return Figure5Result{}, err
		}
		out.SiMRAmW[n] = p
	}
	for _, op := range power.Ops {
		p, err := m.Standard(op)
		if err != nil {
			return Figure5Result{}, err
		}
		out.StandardMW[op.String()] = p
	}
	margin, err := m.MarginBelowRef(32)
	if err != nil {
		return Figure5Result{}, err
	}
	out.Margin32 = margin
	return out, nil
}

// Table renders Fig. 5.
func (f Figure5Result) Table() Table {
	t := Table{
		ID:      "Fig5",
		Title:   "Power of simultaneous many-row activation vs standard DRAM operations",
		Columns: []string{"operation", "power (mW)"},
	}
	for _, n := range sortedKeys(f.SiMRAmW) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SiMRA %d-row", n), fmt.Sprintf("%.1f", f.SiMRAmW[n]),
		})
	}
	for _, op := range []string{"ACT+PRE", "RD", "WR", "REF"} {
		t.Rows = append(t.Rows, []string{op, fmt.Sprintf("%.1f", f.StandardMW[op])})
	}
	t.Rows = append(t.Rows, []string{
		"32-row margin below REF", fmt.Sprintf("%.2f%%", f.Margin32*100),
	})
	return t
}
