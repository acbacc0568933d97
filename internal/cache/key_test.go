package cache

import (
	"math"
	"strings"
	"testing"
)

// TestHasherKnownAnswer pins the hashed byte stream of a mixed-field chain
// to fixed digests, so a rewrite of the Hasher internals that changes any
// key — and with it every cached response address, job ID and shard memo
// — fails here rather than silently invalidating caches.
func TestHasherKnownAnswer(t *testing.T) {
	for _, c := range []struct {
		name string
		key  Key
		want string
	}{
		{"empty", NewHasher().Sum(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"mixed", NewHasher().
			Str("ab").Str("").U64(math.MaxUint64).Int(-1).
			F64(-0.5).F64(math.Inf(1)).Bool(true).Bool(false).
			Sum(), "226ac556856d3fbfeae2699c8e4ce1a125ed34b28190e238b738a45b3b83482e"},
		{"long", NewHasher().
			Str(strings.Repeat("simra", 100)).Int(7).Str("tail").
			Sum(), "4c9814023495b31c0f3d105f96b34e531872cfb5d4a3329c7812e484fc2aea42"},
	} {
		if got := KeyString(c.key); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
