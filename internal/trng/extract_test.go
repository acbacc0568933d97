package trng

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/dram"
	"repro/internal/xrand"
)

func TestVonNeumannRemovesBias(t *testing.T) {
	// A 75%-ones biased stream.
	src := xrand.NewSource(1)
	raw := make([]bool, 40000)
	for i := range raw {
		raw[i] = src.Float64() < 0.75
	}
	out := VonNeumann(raw)
	if len(out) < 1000 {
		t.Fatalf("extractor kept only %d bits", len(out))
	}
	ones := 0
	for _, b := range out {
		if b {
			ones++
		}
	}
	frac := float64(ones) / float64(len(out))
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("extracted bias = %.3f, want ~0.5", frac)
	}
}

func TestVonNeumannKnownPairs(t *testing.T) {
	raw := []bool{false, true, true, false, true, true, false, false}
	out := VonNeumann(raw)
	// Pairs: (0,1)->0, (1,0)->1, (1,1) discard, (0,0) discard.
	if len(out) != 2 || out[0] != false || out[1] != true {
		t.Fatalf("VonNeumann = %v", out)
	}
}

func TestAnalyzeTooShort(t *testing.T) {
	if _, err := Analyze(make([]bool, 10)); err == nil {
		t.Fatal("short stream should error")
	}
}

func TestAnalyzeConstantStreamUnhealthy(t *testing.T) {
	stream := make([]bool, 1024)
	rep, err := Analyze(stream)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy() {
		t.Fatal("constant stream must be unhealthy")
	}
	if rep.MaxRunLen != 1024 || rep.OnesFrac != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAnalyzeAlternatingStreamUnhealthy(t *testing.T) {
	stream := make([]bool, 1024)
	for i := range stream {
		stream[i] = i%2 == 0
	}
	rep, err := Analyze(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect alternation has strong negative lag-1 correlation.
	if rep.SerialCorr > -0.9 {
		t.Fatalf("alternating correlation = %v", rep.SerialCorr)
	}
	if rep.Healthy() {
		t.Fatal("alternating stream must be unhealthy")
	}
}

func TestAnalyzePRNGStreamHealthy(t *testing.T) {
	src := xrand.NewSource(9)
	stream := make([]bool, 8192)
	for i := range stream {
		stream[i] = src.Uint64()&1 == 1
	}
	rep, err := Analyze(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("uniform stream flagged unhealthy: %+v", rep)
	}
}

// TestDRAMEntropyHealthy: the full pipeline — metastable 32-row draws,
// von Neumann extraction, health screens.
func TestDRAMEntropyHealthy(t *testing.T) {
	spec := dram.NewSpec("trng-health", dram.ProfileH, 0xfeed1)
	spec.Columns = 256
	mod, err := dram.NewModule(spec, analog.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sa, err := mod.Subarray(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(mod, sa, 32)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.Bits(60)
	if err != nil {
		t.Fatal(err)
	}
	extracted := VonNeumann(raw)
	if len(extracted) < 256 {
		t.Fatalf("only %d extracted bits", len(extracted))
	}
	rep, err := Analyze(extracted)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("DRAM entropy flagged unhealthy: %+v", rep)
	}
	if got := Bytes(extracted); len(got) != len(extracted)/8 {
		t.Fatalf("Bytes packed %d of %d bits", len(got)*8, len(extracted))
	}
}

func TestBytesKnown(t *testing.T) {
	bits := []bool{true, false, true, false, true, false, true, false, true}
	got := Bytes(bits)
	if len(got) != 1 || got[0] != 0xAA {
		t.Fatalf("Bytes = %x", got)
	}
}
