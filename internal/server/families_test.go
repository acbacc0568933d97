package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
)

// TestFamilyTable checks that every families row reaches each surface the
// table drives: its POST /v1/<kind> route with the row's request schema in
// the OpenAPI document, its /metrics counters, its slot in the unknown-kind
// message (in table order) and a warm-hit benchmark case.
func TestFamilyTable(t *testing.T) {
	s, ts := testServer(t, Config{})
	var doc struct {
		Paths map[string]map[string]struct {
			RequestBody struct {
				Content map[string]struct {
					Schema struct {
						Ref string `json:"$ref"`
					} `json:"schema"`
				} `json:"content"`
			} `json:"requestBody"`
			Responses map[string]struct {
				Content map[string]json.RawMessage `json:"content"`
			} `json:"responses"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(s.OpenAPI(), &doc); err != nil {
		t.Fatal(err)
	}
	_, metrics := postJSONGet(t, ts.URL+"/metrics")
	benched := map[string]bool{}
	for _, c := range warmHitCases {
		benched[c.kind] = true
	}

	var names []string
	for _, f := range families {
		names = append(names, f.kind)
		op, ok := doc.Paths["/v1/"+f.kind]["post"]
		if !ok {
			t.Errorf("%s: OpenAPI has no POST /v1/%s", f.kind, f.kind)
			continue
		}
		if got, want := op.RequestBody.Content["application/json"].Schema.Ref,
			"#/components/schemas/"+f.request.Name(); got != want {
			t.Errorf("%s: request schema %q, want %q", f.kind, got, want)
		}
		if _, columnar := op.Responses["200"].Content[ColumnarContentType]; columnar != f.columnar {
			t.Errorf("%s: OpenAPI columnar response %v, row says %v", f.kind, columnar, f.columnar)
		}
		if !strings.Contains(metrics, `simra_serve_requests_total{kind="`+f.kind+`"}`) {
			t.Errorf("%s: /metrics has no requests counter", f.kind)
		}
		if !benched[f.kind] {
			t.Errorf("%s: no BenchmarkServerWarmHit case", f.kind)
		}
	}
	if !reflect.DeepEqual(kinds, append(names, "batch")) {
		t.Errorf("counter kinds %v, want the table order plus batch", kinds)
	}

	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"nope"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown job kind: %d %s", code, body)
	}
	if got := decodeEnvelope(t, body).ValidOptions; !reflect.DeepEqual(got, names) {
		t.Errorf("unknown job kind lists %v, want %v", got, names)
	}
	_, out := postJSON(t, ts.URL+"/v1/batch", `{"requests":[{"kind":"nope"}]}`)
	var batch BatchResponse
	if err := json.Unmarshal([]byte(out), &batch); err != nil || len(batch.Responses) != 1 {
		t.Fatalf("batch: %v %s", err, out)
	}
	if got := validOptions(batch.Responses[0].Error); !reflect.DeepEqual(got, names) {
		t.Errorf("unknown batch kind lists %v, want %v", got, names)
	}
}

// TestEnvelopePayloadMismatch pins the envelope rule: a payload under any
// family other than the named kind is rejected — 422 on /v1/jobs, an
// in-band item error on /v1/batch — instead of being dropped while the
// named kind runs its defaults.
func TestEnvelopePayloadMismatch(t *testing.T) {
	s, ts := testServer(t, Config{})
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"kind":"trng","sweep":{"figure":"99"}}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched job payload: %d %s, want 422", code, body)
	}
	if e := decodeEnvelope(t, body); !strings.Contains(e.Message, `"sweep" payload`) ||
		!reflect.DeepEqual(e.ValidOptions, []string{"trng"}) {
		t.Fatalf("mismatched job payload error %+v", e)
	}

	_, out := postJSON(t, ts.URL+"/v1/batch", `{"requests":[
		{"kind":"trng","workload":{"modules":"nope"}},
		{"kind":"trng","trng":{"bytes":8},"campaign":{}},
		{"kind":"trng","trng":{"bytes":8}}
	]}`)
	var batch BatchResponse
	if err := json.Unmarshal([]byte(out), &batch); err != nil || len(batch.Responses) != 3 {
		t.Fatalf("batch: %v %s", err, out)
	}
	for i, want := range []string{`"workload" payload`, `"campaign" payload`} {
		r := batch.Responses[i]
		if r.Output != "" || !strings.Contains(r.Error, want) || !strings.HasSuffix(r.Error, "valid: trng") {
			t.Errorf("item %d: %+v, want an in-band error naming the %s", i, r, want)
		}
	}
	if r := batch.Responses[2]; r.Error != "" || r.Output == "" {
		t.Errorf("well-formed sibling item failed: %+v", r)
	}
	if got := s.Executions("trng"); got != 1 {
		t.Errorf("trng executions = %d, want 1 (only the well-formed item runs)", got)
	}
}

// blockingKey is the key the blocking route computes for a payload, taken
// without the table: the payload re-encoded as the route's body, strictly
// decoded into the request type, normalized and hashed.
func blockingKey[Q request[Q]](p *Q) (cache.Key, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return cache.Key{}, err
	}
	var q Q
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return cache.Key{}, err
	}
	n, err := q.normalize()
	return n.key(), err
}

// blockingKeys maps each family to its blocking-route key oracle.
var blockingKeys = map[string]func(JobRequest) (cache.Key, error){
	"sweep":    func(q JobRequest) (cache.Key, error) { return blockingKey(q.Sweep) },
	"workload": func(q JobRequest) (cache.Key, error) { return blockingKey(q.Workload) },
	"trng":     func(q JobRequest) (cache.Key, error) { return blockingKey(q.TRNG) },
	"scenario": func(q JobRequest) (cache.Key, error) { return blockingKey(q.Scenario) },
	"campaign": func(q JobRequest) (cache.Key, error) { return blockingKey(q.Campaign) },
}

// FuzzJobEnvelope strictly decodes arbitrary bytes into a JobRequest and
// binds it through the families table. It must never panic; binding must
// be idempotent (a second pass over the normalized envelope yields the
// same key and job ID); and an accepted envelope's key must equal the key
// of the same payload sent to the family's blocking route.
func FuzzJobEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"sweep","sweep":{"figure":"15","sets":50,"cols":64}}`,
		`{"kind":"workload","workload":{"modules":"representative","cols":64,"maxx":3,"format":"csv"}}`,
		`{"kind":"trng","trng":{"bytes":64,"seed":2024,"rows":32},"webhook":{"url":"http://127.0.0.1:1/hook"}}`,
		`{"kind":"scenario","scenario":{"envelope":"t2","grid":"nominal","cols":128,"groups":2,"banks":1,"trials":2}}`,
		`{"kind":"campaign","campaign":{"workload":"bitmap-scan","top":5,"cols":64,"format":"columnar"}}`,
		`{"kind":"trng","sweep":{"figure":"99"}}`,
		`{"kind":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, fam := range families {
		f.Add([]byte(`{"kind":"` + fam.kind + `"}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&q) != nil {
			return
		}
		oracle, known := blockingKeys[q.Kind]
		var want cache.Key
		var wantErr error
		if known {
			want, wantErr = oracle(q)
		}
		key, _, err := q.bind(nil)
		if err != nil {
			return
		}
		if !known {
			t.Fatalf("kind %q accepted without a blocking-key oracle", q.Kind)
		}
		if wantErr != nil || key != want {
			t.Fatalf("job key %x, blocking route key %x (err %v)", key, want, wantErr)
		}
		again, _, err := q.bind(nil)
		if err != nil {
			t.Fatalf("normalized envelope rejected on a second pass: %v", err)
		}
		if again != key || jobID(q.Kind, again) != jobID(q.Kind, key) {
			t.Fatalf("second pass changed the key: %x -> %x", key, again)
		}
	})
}

// TestWorkersNotAWireField pins that the engine worker count, a field of
// every simulating family's Options, is not a request parameter: a body
// that sends "workers" is refused by the strict decoder on the blocking
// route, as a batch item and as a job payload, and nothing runs.
func TestWorkersNotAWireField(t *testing.T) {
	s, ts := testServer(t, Config{})
	tested := 0
	for _, f := range families {
		if _, ok := f.request.FieldByName("Workers"); !ok {
			continue
		}
		tested++
		payload := `{"workers":2}`
		for route, body := range map[string]string{
			"/v1/" + f.kind: payload,
			"/v1/batch":     `{"requests":[{"kind":"` + f.kind + `","` + f.kind + `":` + payload + `}]}`,
			"/v1/jobs":      `{"kind":"` + f.kind + `","` + f.kind + `":` + payload + `}`,
		} {
			code, out := postJSON(t, ts.URL+route, body)
			if code != http.StatusBadRequest || !strings.Contains(decodeEnvelope(t, out).Message, `unknown field "workers"`) {
				t.Errorf("POST %s %s: %d %s, want 400 naming the unknown field", route, body, code, out)
			}
		}
		if n := s.Executions(f.kind); n != 0 {
			t.Errorf("%s: %d executions after refused requests", f.kind, n)
		}
	}
	if tested != 4 {
		t.Fatalf("%d families carry Workers, want 4 (sweep, workload, scenario, campaign)", tested)
	}
}
