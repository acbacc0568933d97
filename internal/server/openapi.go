package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

// apiRoute is one row of the service's route table — the single source of
// truth both Handler() (mux registration) and OpenAPI() (the generated
// docs/openapi.json) walk, so the committed spec can only describe routes
// that actually exist and CI's spec-sync job catches any drift.
type apiRoute struct {
	// Method is the lowercase OpenAPI verb ("post", "get", "delete").
	Method string
	// Path is the OpenAPI path, with {id}-style parameters.
	Path string
	// Pattern overrides the mux registration pattern when it differs from
	// Path — method-qualified patterns ("GET /v1/jobs/{id}") or
	// cluster-internal prefixes. Empty means register Path bare (the
	// handler enforces the method itself, keeping the 405 error envelope).
	Pattern string
	// Summary is the route's one-line description.
	Summary string
	// Request is the JSON request body type (nil = no body).
	Request reflect.Type
	// Response is the 200-response schema type (nil = no JSON schema:
	// binary, SSE or text payloads described by Produces).
	Response reflect.Type
	// Produces lists extra response media types beyond application/json
	// (the columnar encoding, SSE, plain text).
	Produces []string
	// Columnar marks routes that serve application/vnd.simra.columnar
	// when the request negotiates it.
	Columnar bool
	// Internal marks fleet-internal routes, excluded from the public spec.
	Internal bool

	handler http.HandlerFunc
}

// routes builds the route table: one blocking route per families row,
// then the fixed routes. Handlers are bound per call; the documentation
// fields are static.
func (s *Server) routes() []apiRoute {
	var rts []apiRoute
	for _, f := range families {
		rts = append(rts, apiRoute{
			Method: "post", Path: "/v1/" + f.kind,
			Summary: f.summary, Request: f.request, Response: reflect.TypeOf(Response{}),
			Columnar: f.columnar,
			handler:  f.handler(s),
		})
	}
	return append(rts, []apiRoute{
		{
			Method: "post", Path: "/v1/batch",
			Summary: "Run several requests in one round trip, each through the cache + coalescing path",
			Request: reflect.TypeOf(BatchRequest{}), Response: reflect.TypeOf(BatchResponse{}),
			handler: post(s.handleBatch),
		},
		{
			Method: "post", Path: "/v1/jobs", Pattern: "POST /v1/jobs",
			Summary: "Submit a request for asynchronous execution on the job tier",
			Request: reflect.TypeOf(JobRequest{}), Response: reflect.TypeOf(jobs.Status{}),
			handler: s.handleSubmitJob,
		},
		{
			Method: "get", Path: "/v1/jobs", Pattern: "GET /v1/jobs",
			Summary: "List live and recently finished jobs",
			handler: s.handleListJobs,
		},
		{
			Method: "get", Path: "/v1/jobs/{id}", Pattern: "GET /v1/jobs/{id}",
			Summary:  "Get one job's status snapshot",
			Response: reflect.TypeOf(jobs.Status{}),
			handler:  s.handleGetJob,
		},
		{
			Method: "delete", Path: "/v1/jobs/{id}", Pattern: "DELETE /v1/jobs/{id}",
			Summary:  "Cancel a queued or running job",
			Response: reflect.TypeOf(jobs.Status{}),
			handler:  s.handleCancelJob,
		},
		{
			Method: "get", Path: "/v1/jobs/{id}/events", Pattern: "GET /v1/jobs/{id}/events",
			Summary:  "Stream the job's progress as Server-Sent Events (resumable via Last-Event-ID)",
			Produces: []string{"text/event-stream"},
			handler:  s.handleJobEvents,
		},
		{
			Method: "get", Path: "/v1/jobs/{id}/result", Pattern: "GET /v1/jobs/{id}/result",
			Summary:  "Fetch a succeeded job's rendered result bytes",
			Produces: []string{"text/plain"},
			Columnar: true,
			handler:  s.handleJobResult,
		},
		{
			Method: "get", Path: "/v1/version", Pattern: "GET /v1/version",
			Summary:  "Service identity, API revision and build provenance",
			Response: reflect.TypeOf(VersionInfo{}),
			handler:  s.handleVersion,
		},
		{
			Method: "get", Path: "/v1/openapi.json", Pattern: "GET /v1/openapi.json",
			Summary: "This document: the machine-readable API description",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(s.OpenAPI())
			},
		},
		{
			Method: "get", Path: "/healthz",
			Summary: "Liveness plus the node's cluster role and peer reachability",
			handler: s.handleHealth,
		},
		{
			Method: "get", Path: "/metrics",
			Summary:  "Prometheus-style counter page",
			Produces: []string{"text/plain"},
			handler: func(w http.ResponseWriter, r *http.Request) {
				s.writeMetrics(w)
			},
		},
		{
			Method: "post", Path: cluster.ShardPath, Pattern: "POST " + cluster.ShardPath,
			Internal: true,
			handler:  s.handleInternalShard,
		},
		{
			Method: "get", Path: cluster.CachePathPrefix + "{key}",
			Pattern: "GET " + cluster.CachePathPrefix + "{key}", Internal: true,
			handler: s.handleCacheGet,
		},
		{
			Method: "put", Path: cluster.CachePathPrefix + "{key}",
			Pattern: "PUT " + cluster.CachePathPrefix + "{key}", Internal: true,
			handler: s.handleCachePut,
		},
	}...)
}

// OpenAPI renders the public route table as an OpenAPI 3.0 document:
// deterministic, pretty-printed JSON with a trailing newline, identical
// to the committed docs/openapi.json (CI's spec-sync job regenerates it
// via simra-serve -dump-openapi and fails on any diff).
func (s *Server) OpenAPI() []byte {
	schemas := map[string]any{}
	paths := map[string]any{}
	for _, rt := range s.routes() {
		if rt.Internal {
			continue
		}
		op := map[string]any{
			"summary":   rt.Summary,
			"responses": routeResponses(rt, schemas),
		}
		if rt.Request != nil {
			op["requestBody"] = map[string]any{
				"required": true,
				"content": map[string]any{
					"application/json": map[string]any{
						"schema": schemaRef(rt.Request, schemas),
					},
				},
			}
		}
		if params := pathParams(rt.Path); len(params) > 0 {
			op["parameters"] = params
		}
		item, _ := paths[rt.Path].(map[string]any)
		if item == nil {
			item = map[string]any{}
			paths[rt.Path] = item
		}
		item[rt.Method] = op
	}
	doc := map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "simra-serve",
			"description": "HTTP/JSON API over the DRAM processing-using-memory reproduction's experiment pipelines: characterization sweeps, fleet workload runs, TRNG draws and operating-envelope scenarios, with content-addressed result caching and an async job tier. Bulk tabular results are also served in the columnar colenc encoding (application/vnd.simra.columnar) negotiated per request; see docs/api-spec.md.",
			"version":     Version().APIRevision,
		},
		"paths":      paths,
		"components": map[string]any{"schemas": schemas},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	enc.Encode(doc) // map-keyed document: deterministic, cannot fail
	return buf.Bytes()
}

// routeResponses documents a route's response surface: the JSON schema
// (when typed), the error envelope, and any negotiated media types.
func routeResponses(rt apiRoute, schemas map[string]any) map[string]any {
	content := map[string]any{}
	if rt.Response != nil {
		content["application/json"] = map[string]any{"schema": schemaRef(rt.Response, schemas)}
	}
	for _, mt := range rt.Produces {
		content[mt] = map[string]any{}
	}
	if rt.Columnar {
		content[ColumnarContentType] = map[string]any{
			"schema": map[string]any{"type": "string", "format": "binary"},
		}
	}
	ok := map[string]any{"description": "success"}
	if len(content) > 0 {
		ok["content"] = content
	}
	return map[string]any{
		"200": ok,
		"default": map[string]any{
			"description": "error envelope",
			"content": map[string]any{
				"application/json": map[string]any{
					"schema": schemaRef(reflect.TypeOf(ErrorEnvelope{}), schemas),
				},
			},
		},
	}
}

// pathParams documents the {id}-style path parameters of an OpenAPI path.
func pathParams(path string) []any {
	var out []any
	for _, seg := range strings.Split(path, "/") {
		if len(seg) > 2 && seg[0] == '{' && seg[len(seg)-1] == '}' {
			out = append(out, map[string]any{
				"name": seg[1 : len(seg)-1], "in": "path", "required": true,
				"schema": map[string]any{"type": "string"},
			})
		}
	}
	return out
}

// schemaRef returns a $ref to t's component schema, reflecting the type
// into components/schemas on first use. Named struct types become
// components; everything else inlines.
func schemaRef(t reflect.Type, schemas map[string]any) map[string]any {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || t == reflect.TypeOf(time.Time{}) {
		return schemaOf(t, schemas)
	}
	name := t.Name()
	if _, done := schemas[name]; !done {
		schemas[name] = map[string]any{} // placeholder breaks reference cycles
		props := map[string]any{}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "-" {
				continue
			}
			if tag == "" {
				tag = f.Name
			}
			props[tag] = schemaOf(f.Type, schemas)
		}
		schemas[name] = map[string]any{"type": "object", "properties": props}
	}
	return map[string]any{"$ref": "#/components/schemas/" + name}
}

// schemaOf maps one Go type onto its OpenAPI schema.
func schemaOf(t reflect.Type, schemas map[string]any) map[string]any {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == reflect.TypeOf(time.Time{}) {
		return map[string]any{"type": "string", "format": "date-time"}
	}
	switch t.Kind() {
	case reflect.Bool:
		return map[string]any{"type": "boolean"}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return map[string]any{"type": "integer"}
	case reflect.Float32, reflect.Float64:
		return map[string]any{"type": "number"}
	case reflect.String:
		return map[string]any{"type": "string"}
	case reflect.Slice, reflect.Array:
		return map[string]any{"type": "array", "items": schemaOf(t.Elem(), schemas)}
	case reflect.Map:
		return map[string]any{"type": "object", "additionalProperties": schemaOf(t.Elem(), schemas)}
	case reflect.Struct:
		return schemaRef(t, schemas)
	default:
		return map[string]any{}
	}
}
