package simraclient

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/server"
)

// TestRequestFieldsMatchServer holds the package doc's promise that the
// request types mirror the API field for field: each SDK request type
// has exactly the JSON field names of the server type it is sent to, and
// each job-status type those of the server type it decodes. The status
// types keep the server's field order too, because simra-jobs prints
// them as the server's body re-indented.
func TestRequestFieldsMatchServer(t *testing.T) {
	for _, pair := range []struct {
		sdk, srv any
		ordered  bool
	}{
		{SweepRequest{}, server.SweepRequest{}, false},
		{WorkloadRequest{}, server.WorkloadRequest{}, false},
		{TRNGRequest{}, server.TRNGRequest{}, false},
		{ScenarioRequest{}, server.ScenarioRequest{}, false},
		{CampaignRequest{}, server.CampaignRequest{}, false},
		{BatchItem{}, server.BatchItem{}, false},
		{JobRequest{}, server.JobRequest{}, false},
		{JobWebhook{}, jobs.WebhookSpec{}, false},
		{JobStatus{}, jobs.Status{}, true},
		{JobProgress{}, jobs.Progress{}, true},
		{JobTransition{}, jobs.Transition{}, true},
	} {
		sdk, srv := jsonFields(reflect.TypeOf(pair.sdk)), jsonFields(reflect.TypeOf(pair.srv))
		if !pair.ordered {
			slices.Sort(sdk)
			slices.Sort(srv)
		}
		if !slices.Equal(sdk, srv) {
			t.Errorf("%T fields %v, server %T fields %v", pair.sdk, sdk, pair.srv, srv)
		}
	}
}

// jsonFields lists the JSON field names of struct type t in declaration
// order.
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
	return names
}
