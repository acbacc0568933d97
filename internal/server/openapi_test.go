package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestOpenAPIDocument checks the generated spec: deterministic bytes,
// valid JSON, every public route present with its verb, the columnar
// media type advertised on the bulk-result routes, and internal cluster
// routes excluded.
func TestOpenAPIDocument(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := s.OpenAPI()
	if string(spec) != string(s.OpenAPI()) {
		t.Fatal("OpenAPI() is not deterministic")
	}
	if !strings.HasSuffix(string(spec), "\n") {
		t.Fatal("spec does not end with a newline")
	}

	var doc struct {
		OpenAPI string                                `json:"openapi"`
		Info    struct{ Version string }              `json:"info"`
		Paths   map[string]map[string]json.RawMessage `json:"paths"`
	}
	if err := json.Unmarshal(spec, &doc); err != nil {
		t.Fatalf("spec is not valid JSON: %v", err)
	}
	if doc.OpenAPI == "" || doc.Info.Version != Version().APIRevision {
		t.Fatalf("spec header: openapi=%q version=%q", doc.OpenAPI, doc.Info.Version)
	}
	// Every families row has its blocking route, advertising the columnar
	// media type exactly when the row serves it; the fixed routes follow.
	for _, f := range families {
		op, ok := doc.Paths["/v1/"+f.kind]["post"]
		if !ok {
			t.Errorf("spec is missing post /v1/%s", f.kind)
		}
		if got := strings.Contains(string(op), ColumnarContentType); got != f.columnar {
			t.Errorf("/v1/%s advertises the columnar media type: %v, want %v", f.kind, got, f.columnar)
		}
	}
	for path, verb := range map[string]string{
		"/v1/batch":            "post",
		"/v1/jobs":             "post",
		"/v1/jobs/{id}":        "get",
		"/v1/jobs/{id}/events": "get",
		"/v1/jobs/{id}/result": "get",
		"/v1/version":          "get",
		"/v1/openapi.json":     "get",
		"/healthz":             "get",
		"/metrics":             "get",
	} {
		if _, ok := doc.Paths[path][verb]; !ok {
			t.Errorf("spec is missing %s %s", verb, path)
		}
	}
	for path := range doc.Paths {
		if strings.Contains(path, "/internal/") {
			t.Errorf("fleet-internal route %s leaked into the public spec", path)
		}
	}
	if !strings.Contains(string(doc.Paths["/v1/jobs/{id}/result"]["get"]), ColumnarContentType) {
		t.Error("/v1/jobs/{id}/result does not advertise the columnar media type")
	}

	// The spec serves live at GET /v1/openapi.json, byte-identical.
	resp, err := http.Get(ts.URL + "/v1/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(spec) {
		t.Fatal("GET /v1/openapi.json differs from OpenAPI()")
	}
}

// TestOpenAPISpecCommitted is the in-repo half of CI's spec-sync job:
// the committed docs/openapi.json must match the live route table.
// Regenerate with: go run ./cmd/simra-serve -dump-openapi > docs/openapi.json
func TestOpenAPISpecCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../docs/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	if string(committed) != string(s.OpenAPI()) {
		t.Fatal("docs/openapi.json is stale; regenerate with: go run ./cmd/simra-serve -dump-openapi > docs/openapi.json")
	}
}
