package charexp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/colenc"
	"repro/internal/fleet"
)

// decodedSweep prints a decoded sweep stream's cells the way the text
// and csv tables do.
func decodedSweep(dec *colenc.Table) Table {
	return TypedReport{Table: dec, Cell: (*colenc.Column).CellString}.Strings()
}

// TestColumnarRoundTrip pins the sweep tables' columnar path: RunFigure's
// "columnar" format must decode back into the exact table the text/CSV
// formats render — the string cells survive colenc's round-trip-safe
// inference byte for byte.
func TestColumnarRoundTrip(t *testing.T) {
	r, err := NewRunner(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := r.RunFigure("table1", 0, "columnar")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(enc, colenc.Magic) {
		t.Fatal("columnar render does not start with the stream magic")
	}
	dec, err := colenc.Decode([]byte(enc))
	if err != nil {
		t.Fatal(err)
	}
	got := decodedSweep(dec)
	want := TablePopulation(r.cfg.Fleet)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.CSV() != want.CSV() {
		t.Fatal("CSV render of the round-tripped table diverged")
	}
}

// TestColumnarTablePopulation covers direct Table.Columnar encoding for a
// table with heterogeneous cells (the full population table).
func TestColumnarTablePopulation(t *testing.T) {
	fc := fleet.DefaultConfig()
	fc.Columns = 128
	tab := TablePopulation(fleet.Modules(fc))
	enc, err := tab.Columnar()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := colenc.Decode([]byte(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got := decodedSweep(dec); !reflect.DeepEqual(got, tab) {
		t.Fatalf("population table did not round trip:\n got %+v\nwant %+v", got, tab)
	}
}

// TestRunFigureUnknownFormat pins the error contract the serving layer's
// 422 valid_options envelope parses.
func TestRunFigureUnknownFormat(t *testing.T) {
	r, err := NewRunner(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunFigure("3", 0, "yaml")
	if err == nil || !strings.Contains(err.Error(), "valid: text, csv, columnar") {
		t.Fatalf("want valid-options error; got %v", err)
	}
}
