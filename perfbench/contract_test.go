package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workload and
// metric names in step with what the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads, EndToEnd, PerLayer []struct{ Name string }
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for key, dst := range map[string]any{
		"workloads": &spec.Workloads, "end_to_end": &spec.EndToEnd, "per_layer": &spec.PerLayer,
	} {
		if err := json.Unmarshal(doc[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.name)
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(spec.Workloads), wls},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !reflect.DeepEqual(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json has %v, the program %v", c.what, c.json, c.got)
		}
	}
}
