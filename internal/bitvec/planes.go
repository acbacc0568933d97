package bitvec

// Planes is a dense stack of equally sized bit vectors: plane t holds the
// failure bits of trial t, so the paper's all-trials success metric (§3.1)
// reduces to a word-wise OR across planes (a cell is correct in all trials
// iff no plane marks it). The planes live in one contiguous word slice
// (plane-major), which keeps a whole trial stack in cache while the
// reduction streams through it.
//
// Like Vec, Planes is a header over shared backing storage: copying the
// struct aliases the same bits. Each plane obeys the zero-tail invariant.
type Planes struct {
	t      int // number of planes
	n      int // bits per plane
	stride int // words per plane
	w      []uint64
}

// NewPlanes returns t all-zero planes of n bits each.
func NewPlanes(t, n int) Planes {
	if t < 0 || n < 0 {
		panic("bitvec: negative plane shape")
	}
	stride := WordsFor(n)
	return Planes{t: t, n: n, stride: stride, w: make([]uint64, t*stride)}
}

// T returns the number of planes.
func (p Planes) T() int { return p.t }

// Len returns the number of bits per plane.
func (p Planes) Len() int { return p.n }

// Plane returns plane i as a Vec sharing the stack's storage: writes
// through the Vec update the stack.
func (p Planes) Plane(i int) Vec {
	if i < 0 || i >= p.t {
		panic("bitvec: plane index out of range")
	}
	return Vec{n: p.n, w: p.w[i*p.stride : (i+1)*p.stride]}
}

// Slice returns a stack over the first t planes, sharing storage.
func (p Planes) Slice(t int) Planes {
	if t < 0 || t > p.t {
		panic("bitvec: plane slice out of range")
	}
	return Planes{t: t, n: p.n, stride: p.stride, w: p.w[:t*p.stride]}
}

// ReduceOr sets dst to the word-wise OR across all planes: dst bit i is 1
// iff bit i is set in any plane — "failed in at least one trial" when the
// planes hold failures. The stack must be non-empty and dst must match the
// plane length.
func (p Planes) ReduceOr(dst Vec) {
	if p.t == 0 {
		panic("bitvec: ReduceOr over zero planes")
	}
	if dst.n != p.n {
		panic("bitvec: length mismatch")
	}
	copy(dst.w, p.w[:p.stride])
	for t := 1; t < p.t; t++ {
		pw := p.w[t*p.stride : (t+1)*p.stride]
		for i := range dst.w {
			dst.w[i] |= pw[i]
		}
	}
}
