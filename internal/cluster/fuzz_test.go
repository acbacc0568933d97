package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

// FuzzShardSpecDecode fuzzes the decode of peer shard-spec JSON, the
// bytes /v1/internal/shard accepts from the network, for both kinds.
// decodeSpec takes no module pool, so the target only decodes and never
// executes a shard. For any input it must not panic; bytes that do not
// decode must fail with ErrBadSpec (the route's 400); and a spec that
// does decode must be a fixed point of decode → marshal → decode, with
// equal values and equal re-encoded bytes.
func FuzzShardSpecDecode(f *testing.F) {
	for _, golden := range []string{"testdata/peer_core.json", "testdata/peer_workload.json"} {
		b, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		var req Request
		if err := json.Unmarshal(b, &req); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(req.Spec))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"Workloads":["bitmap-scan",""],"MaxX":-3,"Seed":18446744073709551615}`))
	f.Add([]byte(`{"Spec":{"Profile":{"Decoder":{"FieldBits":null}}},"Trials":1e3}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, kind := range []string{KindCore, KindWorkload} {
			v1, err := decodeSpec(kind, raw)
			if err != nil {
				if !errors.Is(err, ErrBadSpec) {
					t.Fatalf("%s: decode error %v is not ErrBadSpec", kind, err)
				}
				continue
			}
			b1, err := json.Marshal(v1)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", kind, err)
			}
			v2, err := decodeSpec(kind, b1)
			if err != nil {
				t.Fatalf("%s: decode of re-encoded spec: %v\n%s", kind, err, b1)
			}
			if !reflect.DeepEqual(v1, v2) {
				t.Fatalf("%s: decode → marshal → decode changed the spec\n first: %#v\nsecond: %#v", kind, v1, v2)
			}
			b2, err := json.Marshal(v2)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", kind, err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s: re-encoded bytes differ\n first: %s\nsecond: %s", kind, b1, b2)
			}
		}
	})
}
