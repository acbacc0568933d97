package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

// FuzzShardSpecDecode fuzzes the two decoders of wire bytes that come
// from the network, for both kinds: the shard-spec JSON
// /v1/internal/shard accepts, and the shard-result JSON a Peer reads
// back from it. Both come from the kinds table that a Group and a Peer
// decode through, and neither takes a module pool, so the target only
// decodes and never executes a shard. For any input neither may panic;
// bytes that do not decode must fail with the decoder's sentinel
// (ErrBadSpec is the route's 400); and a value that does decode must be
// a fixed point of decode → marshal → decode, with equal values and
// equal re-encoded bytes.
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
	for _, golden := range []string{"testdata/peer_core_result.json", "testdata/peer_workload_result.json"} {
		b, err := os.ReadFile(golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2]`))
	f.Add([]byte(`{"Workloads":["bitmap-scan",""],"MaxX":-3,"Seed":18446744073709551615}`))
	f.Add([]byte(`{"Spec":{"Profile":{"Decoder":{"FieldBits":null}}},"Trials":1e3}`))
	f.Add([]byte(`[{"Counts":{"MAJ":{"03":1,"-1":2}},"TimeNS":-0},{"Group":{"Rows":[]}}]`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for name, k := range kinds {
			for _, d := range []struct {
				what   string
				decode func([]byte) (any, error)
				bad    error
			}{{"spec", k.spec, ErrBadSpec}, {"result", k.result, errBadResult}} {
				v1, err := d.decode(raw)
				if err != nil {
					if !errors.Is(err, d.bad) {
						t.Fatalf("%s %s: decode error %v is not %v", name, d.what, err, d.bad)
					}
					continue
				}
				b1, err := json.Marshal(v1)
				if err != nil {
					t.Fatalf("%s %s: re-encode: %v", name, d.what, err)
				}
				v2, err := d.decode(b1)
				if err != nil {
					t.Fatalf("%s %s: decode of re-encoded value: %v\n%s", name, d.what, err, b1)
				}
				if !reflect.DeepEqual(v1, v2) {
					t.Fatalf("%s %s: decode → marshal → decode changed the value\n first: %#v\nsecond: %#v", name, d.what, v1, v2)
				}
				b2, err := json.Marshal(v2)
				if err != nil {
					t.Fatalf("%s %s: re-encode: %v", name, d.what, err)
				}
				if !bytes.Equal(b1, b2) {
					t.Fatalf("%s %s: re-encoded bytes differ\n first: %s\nsecond: %s", name, d.what, b1, b2)
				}
			}
		}
	})
}
