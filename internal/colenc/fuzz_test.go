package colenc

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzColencRoundTrip derives a deterministic table from the fuzz input
// and checks Encode → Decode is the identity (after null-slot
// canonicalization) at a fuzzed batch size.
func FuzzColencRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(1))
	f.Add([]byte("SIMRACOL fuzz seed with some text cells"), uint16(3))
	f.Add(bytes.Repeat([]byte{0xff, 0x00}, 200), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, batch uint16) {
		tab := tableFrom(data)
		enc, err := Encode(tab, int(batch))
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of our own encoding failed: %v", err)
		}
		want := normalize(tab)
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", dec, want)
		}
		// Re-encoding the decoded table at the same batch size must
		// reproduce the bytes exactly.
		re, err := Encode(dec, int(batch))
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatal("re-encoding the decoded table changed the bytes")
		}
	})
}

// FuzzColencDecode feeds arbitrary bytes to Decode: it must never panic,
// and anything it accepts must survive encode → decode unchanged.
func FuzzColencDecode(f *testing.F) {
	for _, rows := range []int{0, 5, 70} {
		enc, err := Encode(sample(rows), 16)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, footErr := Footer(data)
		tab, err := Decode(data)
		if err != nil {
			return
		}
		if footErr != nil || info.TotalRows != tab.NumRows() {
			t.Fatalf("Footer = %+v, %v on a stream Decode accepts with %d rows", info, footErr, tab.NumRows())
		}
		enc, err := Encode(tab, 16)
		if err != nil {
			t.Fatalf("Encode of a decoded table failed: %v", err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(decoded)) failed: %v", err)
		}
		if !reflect.DeepEqual(dec, normalize(tab)) {
			t.Fatal("accepted stream did not round trip")
		}
	})
}

// tableFrom builds a deterministic mixed-type table from fuzz bytes.
func tableFrom(data []byte) *Table {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	rows := len(data) / 2
	t := &Table{
		Name: "fuzz",
		Meta: [][2]string{{"len", string(rune('a' + at(0)%26))}},
		Cols: []Column{
			{Field: Field{Name: "i", Type: TypeInt64}},
			{Field: Field{Name: "f", Type: TypeFloat64, Nullable: true}},
			{Field: Field{Name: "s", Type: TypeString, Nullable: true}},
			{Field: Field{Name: "b", Type: TypeBool}},
		},
	}
	for r := 0; r < rows; r++ {
		b0, b1 := at(2*r), at(2*r+1)
		t.Cols[0].Int64s = append(t.Cols[0].Int64s, int64(b0)<<8|int64(b1))
		fv := math.Float64frombits(uint64(b0)<<56 | uint64(b1)<<40 | uint64(r))
		if math.IsNaN(fv) {
			fv = 0 // NaN payloads are not canonical; keep floats comparable
		}
		t.Cols[1].Float64s = append(t.Cols[1].Float64s, fv)
		t.Cols[1].Valid = append(t.Cols[1].Valid, b0%3 != 0)
		t.Cols[2].Strings = append(t.Cols[2].Strings, string(data[:int(b1)%(len(data)+1)]))
		t.Cols[2].Valid = append(t.Cols[2].Valid, b1%4 != 0)
		t.Cols[3].Bools = append(t.Cols[3].Bools, b0&1 == 1)
	}
	return t
}
