package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash(1, 2, 3)
	b := Hash(1, 2, 3)
	if a != b {
		t.Fatalf("Hash not deterministic: %x != %x", a, b)
	}
}

func TestHashOrderSensitive(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash should be order-sensitive")
	}
}

func TestHashDistinctCoordinates(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		for j := uint64(0); j < 10; j++ {
			h := Hash(i, j)
			if seen[h] {
				t.Fatalf("collision at (%d,%d)", i, j)
			}
			seen[h] = true
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(h uint64) bool {
		v := Float64(h)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	f := func(a, b uint64) bool {
		v := Uniform(a, b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformMean(t *testing.T) {
	const n = 100000
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += Uniform(i, 42)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	const n = 100000
	var sum, sumSq float64
	for i := uint64(0); i < n; i++ {
		v := Norm(i, 7)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormFinite(t *testing.T) {
	f := func(a, b uint64) bool {
		v := Norm(a, b)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceDeterministic(t *testing.T) {
	s1 := NewSource(99)
	s2 := NewSource(99)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("sources diverged at step %d", i)
		}
	}
}

func TestSourceZeroValueUsable(t *testing.T) {
	var s Source
	v := s.Float64()
	if v < 0 || v >= 1 {
		t.Fatalf("zero-value Source produced %v", v)
	}
}

func TestSourceIntnRange(t *testing.T) {
	s := NewSource(1)
	for i := 0; i < 1000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestSourceIntnDegenerate(t *testing.T) {
	s := NewSource(1)
	if got := s.Intn(0); got != 0 {
		t.Fatalf("Intn(0) = %d, want 0", got)
	}
	if got := s.Intn(-5); got != 0 {
		t.Fatalf("Intn(-5) = %d, want 0", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(5)
	p := s.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	s := NewSource(6)
	got := s.Sample(100, 10)
	if len(got) != 10 {
		t.Fatalf("Sample length = %d, want 10", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleKTooLarge(t *testing.T) {
	s := NewSource(7)
	got := s.Sample(5, 10)
	if len(got) != 5 {
		t.Fatalf("Sample(5,10) length = %d, want 5", len(got))
	}
}

// TestChainMatchesHash pins the Chain API to Hash exactly: the hot paths
// precompute chains over fixed coordinate prefixes, so any divergence
// would silently change every derived draw.
func TestChainMatchesHash(t *testing.T) {
	if got, want := Begin().Sum(), Hash(); got != want {
		t.Fatalf("empty chain = %#x, want %#x", got, want)
	}
	err := quick.Check(func(parts []uint64) bool {
		c := Begin()
		for _, p := range parts {
			c = c.Mix(p)
		}
		return c.Sum() == Hash(parts...)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A prefix chain extended per call equals the flat hash of the full
	// coordinate list — the exact pattern dram.Subarray uses for its keys.
	prefix := Begin().Mix(0xd5a).Mix(3).Mix(17)
	if got, want := prefix.Mix(42).Mix(7).Sum(), Hash(0xd5a, 3, 17, 42, 7); got != want {
		t.Fatalf("prefix chain = %#x, want %#x", got, want)
	}
}

// TestNormMaxBoundsNorm pins NormMax above the largest radius NormOf can
// produce (the log(0) guard's) and above a sample of draws.
func TestNormMaxBoundsNorm(t *testing.T) {
	if r := math.Sqrt(-2 * math.Log(1e-300)); r >= NormMax {
		t.Fatalf("guarded radius %v reaches NormMax %v", r, NormMax)
	}
	for i := uint64(0); i < 1<<16; i++ {
		if v := NormOf(i); math.Abs(v) >= NormMax {
			t.Fatalf("NormOf(%d) = %v exceeds NormMax", i, v)
		}
	}
}
