package colenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sample builds a representative typed table with nulls in every
// nullable column type.
func sample(rows int) *Table {
	t := &Table{
		Name: "sample",
		Meta: [][2]string{{"title", "a sample table"}, {"op", "maj"}},
		Cols: []Column{
			{Field: Field{Name: "id", Type: TypeInt64}},
			{Field: Field{Name: "rate", Type: TypeFloat64, Nullable: true}},
			{Field: Field{Name: "module", Type: TypeString}},
			{Field: Field{Name: "note", Type: TypeString, Nullable: true}},
			{Field: Field{Name: "ok", Type: TypeBool, Nullable: true}},
		},
	}
	for i := 0; i < rows; i++ {
		t.Cols[0].Int64s = append(t.Cols[0].Int64s, int64(i*i-3))
		t.Cols[1].Float64s = append(t.Cols[1].Float64s, float64(i)/7)
		t.Cols[1].Valid = append(t.Cols[1].Valid, i%3 != 0)
		t.Cols[2].Strings = append(t.Cols[2].Strings, strings.Repeat("m", i%5)+"x")
		t.Cols[3].Strings = append(t.Cols[3].Strings, "n")
		t.Cols[3].Valid = append(t.Cols[3].Valid, i%2 == 0)
		t.Cols[4].Bools = append(t.Cols[4].Bools, i%2 == 1)
		t.Cols[4].Valid = append(t.Cols[4].Valid, i%4 != 1)
	}
	return t
}

// normalize canonicalizes a table the way Encode does (zero values at
// null slots, materialized validity) so DeepEqual comparisons hold.
func normalize(t *Table) *Table {
	out := &Table{Name: t.Name, Meta: t.Meta}
	n := t.NumRows()
	for _, c := range t.Cols {
		nc := Column{Field: c.Field}
		if c.Field.Nullable {
			nc.Valid = make([]bool, n)
			for i := 0; i < n; i++ {
				nc.Valid[i] = c.valid(i)
			}
		}
		for i := 0; i < n; i++ {
			v := c.valid(i)
			switch c.Field.Type {
			case TypeInt64:
				x := int64(0)
				if v {
					x = c.Int64s[i]
				}
				nc.Int64s = append(nc.Int64s, x)
			case TypeFloat64:
				x := 0.0
				if v {
					x = c.Float64s[i]
				}
				nc.Float64s = append(nc.Float64s, x)
			case TypeString:
				x := ""
				if v {
					x = c.Strings[i]
				}
				nc.Strings = append(nc.Strings, x)
			default:
				nc.Bools = append(nc.Bools, v && c.Bools[i])
			}
		}
		out.Cols = append(out.Cols, nc)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
		for _, batch := range []int{0, 1, 7, 64, 4096} {
			tab := sample(rows)
			enc, err := Encode(tab, batch)
			if err != nil {
				t.Fatalf("rows=%d batch=%d: %v", rows, batch, err)
			}
			if !bytes.HasPrefix(enc, []byte(Magic)) {
				t.Fatalf("stream does not start with magic")
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("rows=%d batch=%d: decode: %v", rows, batch, err)
			}
			if !reflect.DeepEqual(dec, normalize(tab)) {
				t.Fatalf("rows=%d batch=%d: round trip diverged:\n got %+v\nwant %+v", rows, batch, dec, normalize(tab))
			}
		}
	}
}

// TestDeterministicEncoding pins that equal logical tables — regardless
// of garbage values in null slots or a nil vs all-true validity — encode
// to identical bytes, and that chunking is the only thing batch size
// changes.
func TestDeterministicEncoding(t *testing.T) {
	a := sample(100)
	b := sample(100)
	// Garbage in null slots must not leak into the encoding.
	for i := range b.Cols[1].Valid {
		if !b.Cols[1].Valid[i] {
			b.Cols[1].Float64s[i] = math.NaN()
		}
		if !b.Cols[3].Valid[i] {
			b.Cols[3].Strings[i] = "garbage"
		}
	}
	ea, _ := Encode(a, 32)
	eb, _ := Encode(b, 32)
	if !bytes.Equal(ea, eb) {
		t.Fatal("null-slot values leaked into the encoding")
	}
	e2, _ := Encode(a, 32)
	if !bytes.Equal(ea, e2) {
		t.Fatal("encoding is not deterministic")
	}
	e3, _ := Encode(a, 7)
	if bytes.Equal(ea, e3) {
		t.Fatal("different batch sizes should frame differently")
	}
	da, _ := Decode(ea)
	d3, _ := Decode(e3)
	if !reflect.DeepEqual(da, d3) {
		t.Fatal("chunking changed the decoded table")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc, _ := Encode(sample(10), 4)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOTACOLS stream"),
		"truncated":    enc[:len(enc)-3],
		"trailing":     append(append([]byte{}, enc...), 0xff),
		"bad version":  append([]byte(Magic), 0xff, 0xff, 0xff, 0xff),
		"footer rows":  flip(enc, len(enc)-10),
		"footer count": flip(enc, len(enc)-2),
		"footer mark":  flip(enc, len(enc)-13),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
		if _, err := Footer(data); err == nil {
			t.Errorf("%s: Footer accepted corrupt input", name)
		}
	}
}

// decodedInfo is the reference for Footer: it decodes the whole stream,
// counts its rows, and reads the batch count from the footer Decode has
// verified.
func decodedInfo(data []byte) (StreamInfo, error) {
	t, err := Decode(data)
	if err != nil {
		return StreamInfo{}, err
	}
	batches := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	return StreamInfo{TotalRows: t.NumRows(), BatchCount: batches}, nil
}

// TestFooterGoldens checks Footer against a full decode on every request
// family's committed columnar golden, and that it rejects each golden cut
// short at every length.
func TestFooterGoldens(t *testing.T) {
	goldens, err := filepath.Glob("../../cmd/*/testdata/*.colenc.golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) < 5 {
		t.Fatalf("found %d columnar goldens, want one per family (5)", len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := decodedInfo(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got, err := Footer(data); err != nil || got != want {
			t.Errorf("%s: Footer = %+v, %v; decoded %+v", path, got, err, want)
		}
		for n := 0; n < len(data); n++ {
			if _, err := Footer(data[:n]); err == nil {
				t.Errorf("%s: Footer accepted the stream cut to %d of %d bytes", path, n, len(data))
				break
			}
		}
	}
}

// flip returns a copy of b with one byte inverted.
func flip(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0xff
	return out
}

func TestValidate(t *testing.T) {
	bad := sample(4)
	bad.Cols[0].Int64s = bad.Cols[0].Int64s[:2]
	if _, err := Encode(bad, 0); err == nil {
		t.Fatal("Encode accepted ragged columns")
	}
	bad2 := sample(4)
	bad2.Cols[0].Valid = []bool{true, true, false, true} // not nullable
	if _, err := Encode(bad2, 0); err == nil {
		t.Fatal("Encode accepted nulls on a non-nullable column")
	}
}

func TestPage(t *testing.T) {
	tab := sample(25)
	enc, _ := Encode(tab, 0)
	info, err := Footer(enc)
	if err != nil || info.TotalRows != 25 || info.BatchCount != 1 {
		t.Fatalf("Footer: %+v, %v", info, err)
	}
	var got []Column
	for b := 0; ; b++ {
		page, pi, err := Page(enc, b, 10)
		if err != nil {
			t.Fatal(err)
		}
		if pi.TotalRows != 25 || pi.BatchCount != 3 {
			t.Fatalf("page %d info %+v", b, pi)
		}
		dec, err := Decode(page)
		if err != nil {
			t.Fatalf("page %d: %v", b, err)
		}
		if dec.NumRows() != pi.Rows {
			t.Fatalf("page %d: %d rows; header said %d", b, dec.NumRows(), pi.Rows)
		}
		if got == nil {
			got = dec.Cols
		} else {
			for i := range got {
				got[i].Int64s = append(got[i].Int64s, dec.Cols[i].Int64s...)
				got[i].Float64s = append(got[i].Float64s, dec.Cols[i].Float64s...)
				got[i].Strings = append(got[i].Strings, dec.Cols[i].Strings...)
				got[i].Bools = append(got[i].Bools, dec.Cols[i].Bools...)
				got[i].Valid = append(got[i].Valid, dec.Cols[i].Valid...)
			}
		}
		if pi.Batch == pi.BatchCount-1 {
			break
		}
	}
	want := normalize(tab)
	if !reflect.DeepEqual(got, want.Cols) {
		t.Fatal("concatenated pages diverged from the full table")
	}
	for _, b := range []int{3, -1} {
		if _, _, err := Page(enc, b, 10); !errors.Is(err, ErrBatchRange) {
			t.Fatalf("page %d: error %v; want ErrBatchRange", b, err)
		}
	}
	// A stream that fails to decode is not a range error.
	if _, _, err := Page(enc[:len(enc)-1], 0, 10); err == nil || errors.Is(err, ErrBatchRange) {
		t.Fatalf("truncated stream: error %v; want a decode error", err)
	}
}

func TestFromStringsInference(t *testing.T) {
	cols := []string{"n", "t2", "rate", "module", "digest"}
	rows := [][]string{
		{"32", "1.5", "97.50%", "H1", "0016a4ffde12aa00"},
		{"64", "2", "-", "M0", "1234567890123456"},
		{"-", "2.5", "12.00%", "S2", "00ff00ff00ff00ff"},
	}
	tab := FromStrings("fig", [][2]string{{"title", "t"}}, cols, rows)
	wantTypes := []Type{TypeInt64, TypeFloat64, TypeString, TypeString, TypeString}
	wantNullable := []bool{true, false, true, false, false}
	for i, c := range tab.Cols {
		if c.Field.Type != wantTypes[i] {
			t.Errorf("column %q: type %v; want %v", c.Field.Name, c.Field.Type, wantTypes[i])
		}
		if c.Field.Nullable != wantNullable[i] {
			t.Errorf("column %q: nullable %v; want %v", c.Field.Name, c.Field.Nullable, wantNullable[i])
		}
	}
	// The digest column must stay a string: zero-padded hex would not
	// round-trip through integer parsing.
	if tab.Cols[4].Field.Type != TypeString {
		t.Fatal("zero-padded digests must not be inferred as integers")
	}
	gotCols, gotRows := tab.Strings()
	if !reflect.DeepEqual(gotCols, cols) || !reflect.DeepEqual(gotRows, rows) {
		t.Fatalf("Strings() did not invert FromStrings:\n got %v %v\nwant %v %v", gotCols, gotRows, cols, rows)
	}
	// And the encoding survives a byte round trip.
	enc, err := Encode(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	_, decRows := dec.Strings()
	if !reflect.DeepEqual(decRows, rows) {
		t.Fatalf("decoded rows %v; want %v", decRows, rows)
	}
}

func TestTableAccessors(t *testing.T) {
	tab := sample(3)
	if tab.MetaValue("op") != "maj" || tab.MetaValue("nope") != "" {
		t.Fatal("MetaValue")
	}
	if tab.Col("rate") == nil || tab.Col("nope") != nil {
		t.Fatal("Col")
	}
	if got := tab.Col("id").CellString(1); got != "-2" {
		t.Fatalf("CellString(id,1) = %q", got)
	}
	if got := tab.Col("rate").CellString(0); got != NullCell {
		t.Fatalf("CellString(rate,0) = %q; want null cell", got)
	}
}
