package simraclient

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestRequestFieldsMatchServer holds the package doc's promise that the
// request types mirror the API field for field: each SDK request type
// has exactly the JSON field names of the server type it is sent to.
// The campaign family has no SDK request type yet, so it has no pair
// here.
func TestRequestFieldsMatchServer(t *testing.T) {
	for _, pair := range []struct{ sdk, srv any }{
		{SweepRequest{}, server.SweepRequest{}},
		{WorkloadRequest{}, server.WorkloadRequest{}},
		{TRNGRequest{}, server.TRNGRequest{}},
		{ScenarioRequest{}, server.ScenarioRequest{}},
	} {
		sdk, srv := jsonFields(reflect.TypeOf(pair.sdk)), jsonFields(reflect.TypeOf(pair.srv))
		if !slices.Equal(sdk, srv) {
			t.Errorf("%T fields %v, server %T fields %v", pair.sdk, sdk, pair.srv, srv)
		}
	}
}

// jsonFields lists the JSON field names of struct type t, sorted.
func jsonFields(t reflect.Type) []string {
	var names []string
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
