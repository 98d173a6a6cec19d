package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential deviate %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveIndependence(t *testing.T) {
	s1 := Derive(99, "alpha")
	s2 := Derive(99, "beta")
	s3 := Derive(100, "alpha")
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Fatalf("derived seeds collide: %x %x %x", s1, s2, s3)
	}
	if Derive(99, "alpha") != s1 {
		t.Fatal("Derive is not deterministic")
	}
}

func TestDeriveNDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		s := DeriveN(42, i)
		if seen[s] {
			t.Fatalf("DeriveN collision at %d", i)
		}
		seen[s] = true
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("impress") != HashString("impress") {
		t.Fatal("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial HashString collision")
	}
	if HashBytes([]byte("xy")) != HashBytes([]byte("xy")) {
		t.Fatal("HashBytes not stable")
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(21)
	counts := [3]int{}
	w := []float64{1, 2, 7}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(w)]++
	}
	// Expect roughly 10% / 20% / 70%.
	if f := float64(counts[2]) / n; math.Abs(f-0.7) > 0.02 {
		t.Errorf("weight-7 bucket frequency %v, want ~0.7", f)
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.1) > 0.02 {
		t.Errorf("weight-1 bucket frequency %v, want ~0.1", f)
	}
}

func TestPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero weights did not panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency %v", f)
	}
}

func TestShuffleIntsPreservesElements(t *testing.T) {
	r := New(17)
	p := []int{5, 5, 7, 9, 9, 9}
	sum := 0
	for _, v := range p {
		sum += v
	}
	r.ShuffleInts(p)
	sum2 := 0
	for _, v := range p {
		sum2 += v
	}
	if sum != sum2 || len(p) != 6 {
		t.Fatal("ShuffleInts changed multiset")
	}
}

func TestRange(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestNormFloat64SincosBitIdentical pins the platform invariant
// NormFloat64 relies on: math.Sincos must return exactly the values the
// separate math.Sin and math.Cos calls of the original Box–Muller
// implementation produced, or deviate streams — and every golden trace
// derived from them — would shift.
func TestNormFloat64SincosBitIdentical(t *testing.T) {
	r := New(12345)
	for i := 0; i < 200_000; i++ {
		x := 2 * math.Pi * r.Float64()
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) diverges from Sin/Cos on this platform", x)
		}
	}
}

// TestSeededMatchesNew pins that the value constructor produces the same
// stream as the pointer constructor.
func TestSeededMatchesNew(t *testing.T) {
	a := New(99)
	b := Seeded(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Seeded stream diverges from New")
		}
	}
	if a.NormFloat64() != b.NormFloat64() {
		t.Fatal("Seeded normal stream diverges from New")
	}
}
