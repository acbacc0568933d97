package main

import (
	"reflect"
	"testing"
)

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for _, run := range []uint64{0, 1, 42} {
		for _, stream := range []int64{streamOp, streamWarm, streamHot} {
			for i := int64(0); i < 200; i++ {
				s := deriveSeed(run, stream, i)
				if s != deriveSeed(run, stream, i) {
					t.Fatal("deriveSeed is not deterministic")
				}
				if s == 0 {
					t.Fatal("deriveSeed returned the default-selecting 0")
				}
				if seen[s] {
					t.Fatalf("seed collision at run=%d stream=%d i=%d", run, stream, i)
				}
				seen[s] = true
			}
		}
	}
}

func TestRequestGeneratorsRepeatForASeed(t *testing.T) {
	for i := int64(0); i < 30; i++ {
		if !reflect.DeepEqual(coldRequest(7, i), coldRequest(7, i)) {
			t.Fatal("coldRequest differs for the same seed")
		}
		if coldRequest(7, i).Seed == coldRequest(8, i).Seed {
			t.Fatal("coldRequest ignores the run seed")
		}
		if want := formats[i%3]; coldRequest(7, i).Format != want {
			t.Fatalf("op %d format %q, want %q", i, coldRequest(7, i).Format, want)
		}
		a, b := jobRequest(7, i), jobRequest(7, i)
		if !reflect.DeepEqual(*a.Workload, *b.Workload) || a.Kind != "workload" {
			t.Fatal("jobRequest differs for the same seed")
		}
	}
	if !reflect.DeepEqual(hotSet(3), hotSet(3)) {
		t.Fatal("hotSet differs for the same seed")
	}
	if reflect.DeepEqual(hotSet(3), hotSet(4)) {
		t.Fatal("hotSet ignores the run seed")
	}
	if got := len(hotSet(3)); got != 4*3+1+4 {
		t.Fatalf("hot set has %d items", got)
	}
	if !reflect.DeepEqual(charConfig(5, 1).Fleet, charConfig(5, 2).Fleet) {
		t.Fatal("char config fleet depends on workers")
	}
}
