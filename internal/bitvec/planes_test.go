package bitvec

import "testing"

// naivePlanes builds the [][]bool model of a plane stack from a byte
// stream: plane t's bit i follows the same cycling expansion as boolsFrom,
// offset by the plane index so planes differ.
func naivePlanes(data []byte, t, width int) [][]bool {
	out := make([][]bool, t)
	for p := range out {
		off := p
		if off > len(data) {
			off = len(data)
		}
		out[p] = boolsFrom(data[off:], width)
	}
	return out
}

// stackFrom packs the model into a Planes stack via per-plane Vec writes.
func stackFrom(model [][]bool, width int) Planes {
	p := NewPlanes(len(model), width)
	for t := range model {
		p.Plane(t).CopyFrom(FromBools(model[t]))
	}
	return p
}

func TestPlanesShape(t *testing.T) {
	p := NewPlanes(3, 65)
	if p.T() != 3 || p.Len() != 65 {
		t.Fatalf("shape = (%d, %d), want (3, 65)", p.T(), p.Len())
	}
	// Planes share storage: a write through one plane view is visible to a
	// second view of the same plane and invisible to its neighbours.
	p.Plane(1).Set(64, true)
	if !p.Plane(1).Get(64) {
		t.Fatal("write through plane view not visible")
	}
	if p.Plane(0).Get(64) || p.Plane(2).Get(64) {
		t.Fatal("write leaked into a neighbouring plane")
	}
	s := p.Slice(2)
	if s.T() != 2 || !s.Plane(1).Get(64) {
		t.Fatal("Slice does not alias the original planes")
	}
}

func TestPlanesPanics(t *testing.T) {
	p := NewPlanes(2, 10)
	for name, f := range map[string]func(){
		"negative shape": func() { NewPlanes(-1, 3) },
		"plane range":    func() { p.Plane(2) },
		"slice range":    func() { p.Slice(3) },
		"empty reduce":   func() { NewPlanes(0, 10).ReduceOr(New(10)) },
		"length":         func() { p.ReduceOr(New(11)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPlanesReduceProperty checks the reduction against the naive
// [][]bool model at every interesting width (word boundaries ±1) and plane
// count, including the trial counts the differential suite uses.
func TestPlanesReduceProperty(t *testing.T) {
	data := []byte{0xa5, 0x3c, 0xf0, 0x0f, 0x99, 0x66, 0x81}
	for _, width := range []int{1, 7, 63, 64, 65, 127, 128, 129, 150} {
		for _, planes := range []int{1, 2, 3, 7, 8, 63, 64, 65} {
			model := naivePlanes(data, planes, width)
			stack := stackFrom(model, width)
			or := New(width)
			stack.ReduceOr(or)
			for i := 0; i < width; i++ {
				wantOr := false
				for p := 0; p < planes; p++ {
					wantOr = wantOr || model[p][i]
				}
				if or.Get(i) != wantOr {
					t.Fatalf("ReduceOr(%d planes, width %d) bit %d = %v, want %v",
						planes, width, i, or.Get(i), wantOr)
				}
			}
			checkTail(t, "ReduceOr", or)
		}
	}
}

func FuzzPlanesReduceOr(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0xa5}, uint16(65), byte(3))
	f.Add([]byte{0xaa, 0x55}, uint16(63), byte(8))
	f.Add([]byte{}, uint16(7), byte(2))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint16(129), byte(65))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, tc byte) {
		width := fuzzWidth(n)
		planes := 1 + int(tc)%65
		model := naivePlanes(data, planes, width)
		stack := stackFrom(model, width)
		dst := New(width)
		stack.ReduceOr(dst)
		want := make([]bool, width)
		for i := range want {
			for p := 0; p < planes; p++ {
				want[i] = want[i] || model[p][i]
			}
		}
		checkBits(t, dst, want, "ReduceOr")
	})
}
