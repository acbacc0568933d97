// Package cache is the result-memoization layer of the serving stack: a
// content-addressed, byte-bounded LRU store with request coalescing
// (singleflight) semantics, shared by the HTTP serving layer
// (internal/server) for whole-request responses and by the execution
// engine (engine.RunKeyed) for per-shard sweep results.
//
// Keys are canonical content hashes of everything a result depends on —
// module profile and spec, electrical parameters, sweep/workload
// configuration, environment and seed — built with the tagged Hasher so
// that distinct inputs can never collide by concatenation ambiguity.
// Because every simulation result in this repository is bit-identical for
// any worker count, worker configuration is deliberately excluded from
// keys: a cached response is byte-identical to an uncached one (see
// DESIGN.md §9).
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Key is a canonical content hash addressing one cached result. The alias
// (rather than a defined type) keeps the engine's Memo interface free of a
// dependency on this package.
type Key = [sha256.Size]byte

// KeyString renders a key as hex for logs, responses and metrics.
func KeyString(k Key) string { return hex.EncodeToString(k[:]) }

// Hasher builds canonical keys from typed fields. Every write is tagged
// with a type byte and fixed-width or length-prefixed, so field boundaries
// are unambiguous: Str("ab").Str("c") and Str("a").Str("bc") yield
// different keys. Fields are appended to one buffer, backed inline up to
// a typical request key's size, and Sum hashes it with one SHA-256 call:
// a key costs the Hasher's own allocation, not one per field. Start with
// NewHasher.
type Hasher struct {
	buf    []byte
	inline [256]byte
}

// NewHasher returns an empty canonical hasher.
func NewHasher() *Hasher {
	h := new(Hasher)
	h.buf = h.inline[:0]
	return h
}

// tag bytes disambiguate field types in the hashed stream.
const (
	tagStr  = 0x01
	tagU64  = 0x02
	tagI64  = 0x03
	tagF64  = 0x04
	tagBool = 0x05
)

// word appends a tagged fixed-width field.
func (h *Hasher) word(tag byte, v uint64) *Hasher {
	h.buf = binary.BigEndian.AppendUint64(append(h.buf, tag), v)
	return h
}

// Str hashes a length-prefixed string field.
func (h *Hasher) Str(s string) *Hasher {
	h.word(tagStr, uint64(len(s)))
	h.buf = append(h.buf, s...)
	return h
}

// U64 hashes an unsigned integer field.
func (h *Hasher) U64(v uint64) *Hasher { return h.word(tagU64, v) }

// Int hashes a signed integer field.
func (h *Hasher) Int(v int) *Hasher { return h.word(tagI64, uint64(int64(v))) }

// F64 hashes a float field by its IEEE-754 bits.
func (h *Hasher) F64(v float64) *Hasher { return h.word(tagF64, math.Float64bits(v)) }

// Bool hashes a boolean field.
func (h *Hasher) Bool(v bool) *Hasher {
	b := byte(0)
	if v {
		b = 1
	}
	h.buf = append(h.buf, tagBool, b)
	return h
}

// Sum finalizes the key.
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }
