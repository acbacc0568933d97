package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/timing"
)

// BenchmarkTesterOps times the three Tester operation entry points on one
// 32-row group of a 256-column Mfr. H module, 8 trials each, at each
// operation's best timings.
func BenchmarkTesterOps(b *testing.B) {
	tester := testTester(b, dram.ProfileH)
	sa, g := firstGroup(b, tester, 32)
	ops := []struct {
		name string
		run  func() (SuccessResult, error)
	}{
		{"activation", func() (SuccessResult, error) {
			return tester.ManyRowActivation(sa, g, timing.BestSiMRA(), dram.PatternRandom)
		}},
		{"maj5", func() (SuccessResult, error) {
			return tester.MAJ(sa, g, 5, timing.BestMAJ(), dram.PatternRandom)
		}},
		{"copy", func() (SuccessResult, error) {
			return tester.MultiRowCopy(sa, g, timing.BestCopy(), dram.PatternRandom)
		}},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := op.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
