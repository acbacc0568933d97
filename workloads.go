package simra

import (
	"context"
	"io"

	"repro/internal/workload"
)

// Workload-subsystem types (DESIGN.md §8): end-to-end in-DRAM
// applications composed from the bit-serial MAJX primitives and executed
// fleet-wide on the sharded engine.
type (
	// Workload is one end-to-end in-DRAM application.
	Workload = workload.Workload
	// WorkloadOutcome is the raw output of one workload execution.
	WorkloadOutcome = workload.Outcome
	// WorkloadResult is one (module, workload) cell of a fleet run, with
	// success-rate, time, energy and throughput accounting.
	WorkloadResult = workload.Result
	// WorkloadConfig scopes a fleet-wide workload run.
	WorkloadConfig = workload.FleetConfig
	// WorkloadOptions is the one declaration of the workload family's
	// parameters: its tags name the simra-work flags and the serving
	// layer's /v1/workload fields, so CLI and served responses are
	// byte-identical. Resolve it with ResolveWorkloads.
	WorkloadOptions = workload.Options
)

// Workloads returns the registered workloads in stable execution order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName returns the workload registered under name.
func WorkloadByName(name string) (Workload, error) { return workload.Get(name) }

// DefaultWorkloadConfig returns the standard reduced-scale configuration:
// the representative fleet (one module per die group) on 512-column
// subarray slices.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultFleetConfig() }

// RunWorkloads executes the configured workloads across the fleet on the
// execution engine. Results are bit-identical for every worker count.
func RunWorkloads(ctx context.Context, cfg WorkloadConfig) ([]WorkloadResult, error) {
	return workload.RunFleet(ctx, cfg)
}

// ResolveWorkloads validates CLI/serving options and builds the
// fleet-run configuration.
func ResolveWorkloads(o WorkloadOptions) (WorkloadConfig, error) { return o.Resolve() }

// WorkloadReport renders fleet-run results as a table (text or CSV).
func WorkloadReport(results []WorkloadResult) ExperimentTable {
	return workload.TypedReport(workload.Columnar(results)).Strings()
}

// WriteWorkloadReport renders fleet-run results to w in the given format
// (text, csv or columnar): the byte-exact output contract shared by
// simra-work and the serving layer.
func WriteWorkloadReport(w io.Writer, results []WorkloadResult, format string) error {
	return workload.WriteReport(w, results, format)
}

// WorkloadDigest folds per-element outputs into the 64-bit fingerprint
// reported by tables and asserted by the golden tests.
func WorkloadDigest(values []uint64) uint64 { return workload.Digest(values) }
