package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50}, // overlaps a
		{Name: "a", Parent: 0, Start: 70, End: 80},
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}
	lts := selfTimes(spans)
	if got := lts["op"].Self; got != 50*time.Nanosecond {
		t.Errorf("op self = %v, want 50ns", got)
	}
	if got := lts["a"]; got.Count != 2 || got.Total != 40 || got.Self != 35 {
		t.Errorf("a = %+v, want count 2, total 40ns, self 35ns", *got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
