package simra

import (
	"context"
	"io"

	"repro/internal/scenario"
)

// Scenario-subsystem types (DESIGN.md §10): declarative operating-envelope
// scans and adaptive per-module envelope search over the environment axes
// (temperature, VPP, APA timings, aging, data pattern, activation and
// majority widths), executed as memoized engine shards.
type (
	// Scenario scopes one scenario run: an axis grid (or envelope search)
	// over an operation family and a module fleet.
	Scenario = scenario.Config
	// ScenarioGrid declares the swept axes; unset axes collapse to the
	// operation's nominal point.
	ScenarioGrid = scenario.Grid
	// ScenarioPoint is one fully resolved operating condition.
	ScenarioPoint = scenario.Point
	// ScenarioEnvelope configures the adaptive envelope (cliff) search.
	ScenarioEnvelope = scenario.Envelope
	// ScenarioResult is a completed run: grid points or envelope cells.
	ScenarioResult = scenario.Result
	// ScenarioPointResult aggregates one point across the fleet.
	ScenarioPointResult = scenario.PointResult
	// EnvelopeCell is one module's envelope-search outcome: the
	// machine-readable reliability cliff.
	EnvelopeCell = scenario.EnvelopeCell
	// ScenarioOptions mirrors the cmd/simra-scan CLI flag surface; resolve
	// it with ResolveScenario. The serving layer (/v1/scenario) accepts
	// the same parameters, so CLI and served responses are byte-identical.
	ScenarioOptions = scenario.Options
)

// DefaultScenario returns the standard reduced-scale scenario
// configuration (representative fleet, nominal grid).
func DefaultScenario() Scenario { return scenario.DefaultConfig() }

// RunScenarios executes a scenario configuration: a grid scan over the
// axis cross product, or — with Envelope set — the adaptive per-module
// envelope search. Results are bit-identical for every worker count,
// fleet composition and cache mode.
func RunScenarios(ctx context.Context, cfg Scenario) (*ScenarioResult, error) {
	return scenario.Run(ctx, cfg)
}

// ResolveScenario validates CLI/serving options and builds the scenario
// configuration.
func ResolveScenario(o ScenarioOptions) (Scenario, error) { return o.Resolve() }

// WriteScenarioReport renders a scenario result to w in the given format
// (text, csv or columnar): the byte-exact output contract shared by
// simra-scan and the serving layer.
func WriteScenarioReport(w io.Writer, r *ScenarioResult, format string) error {
	return scenario.WriteReport(w, r, format)
}

// ScenarioEnvelopeAxes lists the bisectable envelope axes.
func ScenarioEnvelopeAxes() []string { return scenario.EnvelopeAxes() }
