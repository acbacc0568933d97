// Package xrand provides deterministic, splittable pseudo-random utilities.
//
// Every source of "randomness" in the simulator is derived by hashing a
// structural coordinate (chip, bank, subarray, row, column, trial, ...)
// together with a user seed. This makes all static process variation and
// all per-trial transient noise exactly reproducible: the same seed always
// yields the same fleet, the same unstable cells, and the same experiment
// results, independent of iteration order or goroutine scheduling.
package xrand

import "math"

// golden is the 64-bit golden-ratio increment used by splitmix64.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective mixing of a 64-bit value
// with good avalanche behaviour. It is the core primitive every other
// function in this package builds on.
func mix64(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashInit is the initial state of the Hash chain.
const hashInit = 0x5851f42d4c957f2d

// Hash combines any number of 64-bit coordinates into a single well-mixed
// 64-bit value. Hash is deterministic and order-sensitive.
func Hash(parts ...uint64) uint64 {
	h := uint64(hashInit)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return mix64(h)
}

// Chain is the incremental form of Hash: mixing coordinates one at a time
// without a parts slice. Begin().Mix(a).Mix(b).Sum() == Hash(a, b) for
// every coordinate sequence, so hot paths can precompute the chain over a
// fixed coordinate prefix and extend it per call with zero allocations.
type Chain uint64

// Begin returns the empty hash chain.
func Begin() Chain { return Chain(hashInit) }

// Mix folds one coordinate into the chain.
func (c Chain) Mix(p uint64) Chain { return Chain(mix64(uint64(c) ^ p)) }

// Sum finalizes the chain into the Hash value of the mixed coordinates.
func (c Chain) Sum() uint64 { return mix64(uint64(c)) }

// Float64 maps a hash value to the half-open interval [0, 1) with 53 bits
// of precision.
func Float64(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Uniform returns a deterministic uniform variate in [0, 1) for the given
// coordinates.
func Uniform(parts ...uint64) float64 {
	return Float64(Hash(parts...))
}

// Norm returns a deterministic standard-normal variate for the given
// coordinates, via the Box-Muller transform over two derived uniforms.
func Norm(parts ...uint64) float64 {
	return NormOf(Hash(parts...))
}

// NormMax bounds every NormOf value in magnitude. The Box-Muller radius
// sqrt(-2·ln u1) is largest at the smallest u1: 2^-53 gives 8.57, and the
// log(0) guard's 1e-300 gives 37.17; |cos| ≤ 1. A caller comparing
// x + σ·NormOf(h) against a threshold can therefore decide the comparison
// without drawing whenever the threshold lies beyond x ± |σ|·NormMax.
const NormMax = 37.2

// NormOf returns the standard-normal variate derived from an already
// computed Hash value: NormOf(Hash(parts...)) == Norm(parts...). Chain
// users call it to draw normals without materializing a parts slice.
func NormOf(h uint64) float64 {
	u1 := Float64(mix64(h ^ 0xa5a5a5a5a5a5a5a5))
	u2 := Float64(mix64(h ^ 0x5a5a5a5a5a5a5a5a))
	// Guard against log(0).
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Source is a deterministic stream of pseudo-random values produced by
// repeatedly applying splitmix64 to an internal counter. The zero value is
// a valid source seeded with zero.
type Source struct {
	state uint64
}

// NewSource returns a Source seeded from the given coordinates.
func NewSource(parts ...uint64) *Source {
	return &Source{state: Hash(parts...)}
}

// Uint64 returns the next 64-bit value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Float64 returns the next uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	return Float64(s.Uint64())
}

// Intn returns a uniform integer in [0, n). It returns 0 when n <= 0 so
// that callers need not special-case degenerate ranges.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns the next standard-normal variate in the stream.
func (s *Source) Norm() float64 {
	u1 := s.Float64()
	u2 := s.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bool returns the next fair coin flip.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct deterministic pseudo-random integers drawn
// without replacement from [0, n). If k >= n it returns a permutation of
// the full range.
func (s *Source) Sample(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	p := s.Perm(n)
	return p[:k]
}
