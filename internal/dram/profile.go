// Package dram models the DRAM devices under test: the structural
// hierarchy (module → bank → subarray → cells), per-manufacturer
// behavioural profiles, and the command-level execution engine that the
// tester drives — including the timing-violating ACT→PRE→ACT (APA)
// sequences that produce simultaneous many-row activation, in-DRAM
// majority, and multi-row copy.
package dram

import (
	"fmt"

	"repro/internal/analog"
	"repro/internal/cache"
	"repro/internal/decoder"
)

// Profile captures a manufacturer's behavioural characteristics as
// reverse-engineered by the paper.
type Profile struct {
	// Name is the paper's anonymized manufacturer tag: "H", "M" or "S".
	Name string
	// Manufacturer is the vendor name.
	Manufacturer string
	// Decoder is the subarray row-decoder geometry.
	Decoder decoder.Config
	// FracSupported reports whether the Frac operation (storing VDD/2 in a
	// cell) works on this vendor's chips. Mfr. M does not support Frac;
	// its neutral rows are instead initialized with solid values that the
	// (biased) sense amplifiers cancel out (paper footnote 5), which is
	// slightly noisier.
	FracSupported bool
	// APAGuarded reports whether the chip's control circuitry ignores
	// timing-violating APA sequences. The tested Samsung chips never
	// activate more than one row (§9, Limitation 1).
	APAGuarded bool
	// ViabilityBias shifts the group-viability z-score (see analog) for
	// majority operations. 0 for Mfr. H.
	ViabilityBias float64
	// MaxMAJ is the largest majority width with non-negligible success:
	// 9 for Mfr. H (MAJ11+ under 1%), 7 for Mfr. M (MAJ9+ under 1%).
	MaxMAJ int
}

// Built-in profiles matching §9 / Table 1.
var (
	// ProfileH models the SK Hynix chips (die revisions M and A).
	ProfileH = Profile{
		Name:          "H",
		Manufacturer:  "SK Hynix",
		Decoder:       decoder.Hynix512(),
		FracSupported: true,
		MaxMAJ:        9,
	}
	// ProfileH640 models the SK Hynix modules with 640-row subarrays.
	ProfileH640 = Profile{
		Name:          "H",
		Manufacturer:  "SK Hynix",
		Decoder:       decoder.Hynix640(),
		FracSupported: true,
		MaxMAJ:        9,
	}
	// ProfileM models the Micron chips (die revisions E and B).
	ProfileM = Profile{
		Name:          "M",
		Manufacturer:  "Micron",
		Decoder:       decoder.Micron1024(),
		FracSupported: false,
		ViabilityBias: -0.25,
		MaxMAJ:        7,
	}
	// ProfileS models the Samsung chips on which no PUD operation is
	// observable.
	ProfileS = Profile{
		Name:         "S",
		Manufacturer: "Samsung",
		Decoder:      decoder.Hynix512(),
		APAGuarded:   true,
		MaxMAJ:       0,
	}
)

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("dram: profile missing name")
	}
	if _, err := decoder.New(p.Decoder); err != nil {
		return fmt.Errorf("dram: profile %s: %w", p.Name, err)
	}
	if p.MaxMAJ < 0 || p.MaxMAJ%2 == 0 && p.MaxMAJ != 0 {
		return fmt.Errorf("dram: profile %s: MaxMAJ %d must be odd or zero", p.Name, p.MaxMAJ)
	}
	return nil
}

// Spec identifies one DRAM module under test (a row of Table 2).
type Spec struct {
	// ID is the module identifier used in reports.
	ID string
	// Profile is the manufacturer behavioural profile.
	Profile Profile
	// Chips is the number of DRAM chips on the module.
	Chips int
	// Banks per chip (DDR4 x8/x16 devices have 16 banks).
	Banks int
	// SubarraysPerBank is the number of subarrays in each bank.
	SubarraysPerBank int
	// Columns is the number of bitlines simulated per subarray. Real
	// chips have 8192 (x8) or 16384 (x16) per row; experiments simulate a
	// configurable slice (default 1024) and report success rates, which
	// are per-cell fractions and therefore insensitive to the slice width.
	Columns int
	// DensityGbit and DieRev are reporting metadata (Table 1/2).
	DensityGbit int
	DieRev      string
	// FreqMTps is the module's data rate in MT/s (reporting metadata).
	FreqMTps int
	// Seed determines all static process variation of this module.
	Seed uint64
}

// ParamsBlock is the electrical-model part of every HashModule key: the
// analog.Params value formatted with %v, which covers every field,
// including any added later, and tells -0 from +0. Formatting reflects
// over the whole struct, so callers build the block once per resolved
// configuration with FormatParams and pass it to every key and module
// they derive from that configuration.
type ParamsBlock string

// FormatParams returns the params' HashModule block.
func FormatParams(params analog.Params) ParamsBlock {
	return ParamsBlock(fmt.Sprintf("%v", params))
}

// HashModule writes the spec's simulation-relevant identity — module ID,
// process-variation seed, geometry, behavioural profile, die revision —
// and the electrical parameters' block into a canonical hasher. It is the
// shared module block of every key family built on a module (charexp
// sweep shards, workload module shards, scenario point shards, campaign
// candidates, warmpool instances, static tables): one place to extend
// when Spec or Profile gains a field, so no key family can silently fall
// out of date. pb must be FormatParams of the module's params; it is
// computed once per resolved configuration, not once per key.
func (s Spec) HashModule(h *cache.Hasher, pb ParamsBlock) *cache.Hasher {
	return h.
		Str(s.ID).U64(s.Seed).Int(s.Columns).
		Int(s.Banks).Int(s.SubarraysPerBank).
		Str(s.Profile.Name).Int(s.Profile.Decoder.Rows).
		Bool(s.Profile.FracSupported).F64(s.Profile.ViabilityBias).
		Int(s.Profile.MaxMAJ).Bool(s.Profile.APAGuarded).
		Str(s.DieRev).
		Str(string(pb))
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("dram: spec missing ID")
	}
	if err := s.Profile.Validate(); err != nil {
		return err
	}
	if s.Chips <= 0 || s.Banks <= 0 || s.SubarraysPerBank <= 0 {
		return fmt.Errorf("dram: spec %s: chips/banks/subarrays must be positive", s.ID)
	}
	if s.Columns <= 0 {
		return fmt.Errorf("dram: spec %s: columns must be positive", s.ID)
	}
	return nil
}

// DefaultColumns is the default simulated subarray slice width.
const DefaultColumns = 1024

// NewSpec returns a Spec with conventional defaults for the given profile:
// 16 banks, 128 subarrays per bank, the default column slice.
func NewSpec(id string, profile Profile, seed uint64) Spec {
	return Spec{
		ID:               id,
		Profile:          profile,
		Chips:            8,
		Banks:            16,
		SubarraysPerBank: 128,
		Columns:          DefaultColumns,
		DensityGbit:      4,
		DieRev:           "M",
		FreqMTps:         2666,
		Seed:             seed,
	}
}

// Module is one instantiated DRAM module: the unit the tester connects to.
type Module struct {
	spec   Spec
	dec    *decoder.Decoder
	params analog.Params
	pb     ParamsBlock
	banks  map[int]*bank
	// tabKey is the module's static-table identity (see saTables): two
	// modules with equal tabKey have identical process variation, so their
	// subarrays share derived tables.
	tabKey cache.Key
}

type bank struct {
	subarrays map[int]*Subarray
}

// NewModule builds a module from a spec with the given electrical model.
func NewModule(spec Spec, params analog.Params) (*Module, error) {
	return NewModuleBlock(spec, params, FormatParams(params))
}

// NewModuleBlock is NewModule for callers that build several modules from
// one configuration: pb, which must be FormatParams(params), is formatted
// once by the caller instead of once per module. An empty pb, from a
// configuration that was never resolved, is formatted here, so it can
// cost time but never give two electrical models one table identity.
func NewModuleBlock(spec Spec, params analog.Params, pb ParamsBlock) (*Module, error) {
	if pb == "" {
		pb = FormatParams(params)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	dec, err := decoder.New(spec.Profile.Decoder)
	if err != nil {
		return nil, err
	}
	return &Module{
		spec:   spec,
		dec:    dec,
		params: params,
		pb:     pb,
		banks:  make(map[int]*bank),
		tabKey: spec.HashModule(cache.NewHasher().Str("dram/subarray-tables/v1"), pb).Sum(),
	}, nil
}

// Spec returns the module's identity.
func (m *Module) Spec() Spec { return m.spec }

// IdentityKey returns the module's simulation-identity digest: the same
// spec + electrical-params hash the static-table registry shares
// derivations by. Two modules with equal keys are bit-identical
// simulations, so derived pure-function results (tables, samplings) can
// be shared between them.
func (m *Module) IdentityKey() cache.Key { return m.tabKey }

// Decoder returns the module's subarray row decoder.
func (m *Module) Decoder() *decoder.Decoder { return m.dec }

// Params returns the electrical model parameters.
func (m *Module) Params() analog.Params { return m.params }

// ParamsBlock returns the HashModule block of the module's params.
func (m *Module) ParamsBlock() ParamsBlock { return m.pb }

// RowsPerSubarray returns the subarray height.
func (m *Module) RowsPerSubarray() int { return m.dec.Rows() }

// Subarray returns (lazily allocating) the subarray at the given bank and
// index. Subarrays are independent: PUD operations never cross them.
func (m *Module) Subarray(bankIdx, saIdx int) (*Subarray, error) {
	if bankIdx < 0 || bankIdx >= m.spec.Banks {
		return nil, fmt.Errorf("dram: bank %d outside [0,%d)", bankIdx, m.spec.Banks)
	}
	if saIdx < 0 || saIdx >= m.spec.SubarraysPerBank {
		return nil, fmt.Errorf("dram: subarray %d outside [0,%d)", saIdx, m.spec.SubarraysPerBank)
	}
	b, ok := m.banks[bankIdx]
	if !ok {
		b = &bank{subarrays: make(map[int]*Subarray)}
		m.banks[bankIdx] = b
	}
	sa, ok := b.subarrays[saIdx]
	if !ok {
		sa = newSubarray(m, bankIdx, saIdx)
		b.subarrays[saIdx] = sa
	}
	return sa, nil
}
