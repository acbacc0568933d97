package trng

import (
	"fmt"
	"strings"

	"repro/internal/analog"
	"repro/internal/dram"
)

// Emit returns exactly n von-Neumann-extracted random bytes from the
// generator, screening each sufficiently large extracted batch with the
// SP 800-90B-style health checks. The per-iteration draw count doubles
// (16 up to 1024) so small requests stay cheap and large ones amortize
// the activation overhead. This is the single generation loop behind
// cmd/simra-trng and the serving layer's TRNG endpoint; for a fixed
// module seed and group size the byte stream is deterministic.
func Emit(g *Generator, n int) ([]byte, error) {
	if n <= 0 || n > 1<<20 {
		return nil, fmt.Errorf("trng: byte count must be in (0, 1Mi]")
	}
	var out []byte
	draws := 16
	for len(out) < n {
		bits, err := g.Bits(draws)
		if err != nil {
			return nil, err
		}
		extracted := VonNeumann(bits)
		if len(extracted) >= 256 {
			report, err := Analyze(extracted)
			if err != nil {
				return nil, err
			}
			if !report.Healthy() {
				return nil, fmt.Errorf("trng: entropy source failed health checks: %+v", report)
			}
		}
		out = append(out, Bytes(extracted)...)
		if draws < 1024 {
			draws *= 2
		}
	}
	return out[:n], nil
}

// Options is the one declaration of the TRNG family's parameters: the
// json tags are the serving layer's request fields, the flag and usage
// tags are cmd/simra-trng's flags. Every value is taken literally —
// defaults live in the CLI's pre-filled flags and the serving layer's
// request normalization, so an explicit zero seed means seed zero, not
// "pick one for me".
type Options struct {
	// Bytes is the number of random bytes to emit, in (0, 1 MiB].
	Bytes int `json:"bytes,omitempty" flag:"bytes" usage:"number of random bytes to emit"`
	// Seed is the simulated module's process-variation seed.
	Seed uint64 `json:"seed,omitempty" flag:"seed" usage:"module process-variation seed"`
	// Rows is the activation group size, a power of two in [2, 32].
	Rows int `json:"rows,omitempty" flag:"rows" usage:"activation group size (2-32, power of two)"`
}

// Generate builds the simulated SK Hynix module behind the TRNG and emits
// o.Bytes health-screened random bytes: the single entry point shared by
// cmd/simra-trng and the serving layer. The stream is deterministic for a
// given (seed, rows) pair.
func Generate(o Options) ([]byte, error) {
	spec := dram.NewSpec("trng", dram.ProfileH, o.Seed)
	mod, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		return nil, err
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		return nil, err
	}
	g, err := NewGenerator(mod, sa, o.Rows)
	if err != nil {
		return nil, err
	}
	return Emit(g, o.Bytes)
}

// FormatHex renders bytes as the 16-per-line offset hex dump
// cmd/simra-trng prints (and the serving layer returns for hex-format
// TRNG requests).
func FormatHex(b []byte) string {
	var sb strings.Builder
	for i := 0; i < len(b); i += 16 {
		end := i + 16
		if end > len(b) {
			end = len(b)
		}
		fmt.Fprintf(&sb, "%04x  % x\n", i, b[i:end])
	}
	return sb.String()
}
