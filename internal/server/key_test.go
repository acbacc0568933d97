package server

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
)

// TestRequestKeyKnownAnswer pins every warm-hit request's normalized cache
// key to a fixed digest. The keys address cached responses and seed job
// IDs, so they must survive any refactor of normalize or of the Hasher
// byte for byte.
func TestRequestKeyKnownAnswer(t *testing.T) {
	want := map[string]string{
		"sweep":    "279b8b6c225abb22027ba8afccced7d9cb7303b567a2c99fb0f26acfeb6e6448",
		"workload": "af9d59537186b6e37536eececba4ca9211965ee2e604d49b897c9913166323de",
		"trng":     "94704d678c775e36a4f7c5f765952116fcfa0785bbf1e2d45b573f76c54065c5",
		"scenario": "a2ff42ee4046d266dcfb2c9f68574703c9178b13de1943bd1d7994101076531d",
		"campaign": "6fe74b8c3208490bd025c84cf874e8f1156c8252b7e26ecab60045c32d11592f",
	}
	for _, c := range warmHitCases {
		var item BatchItem
		env := `{"kind":"` + c.kind + `","` + c.kind + `":` + c.body + `}`
		if err := json.Unmarshal([]byte(env), &item); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		f, err := envelopeFamily(item.Kind, &item, func(f *family) slot[BatchItem] { return f.item })
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		key, _, err := f.item.bind(nil, &item)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if got := cache.KeyString(key); got != want[c.kind] {
			t.Errorf("%s: key %s, want %s", c.kind, got, want[c.kind])
		}
	}
}
