package stats

import (
	"math"
	"testing"
	"testing/quick"

	"impress/internal/xrand"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanMedianKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if m := Median(xs); !almost(m, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", m)
	}
	if m := Median([]float64{3, 1, 2}); !almost(m, 2, 1e-12) {
		t.Errorf("odd Median = %v, want 2", m)
	}
}

func TestStdDevKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	if s := StdDev(xs); !almost(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, v := range map[string]float64{
		"Mean":     Mean(nil),
		"Median":   Median(nil),
		"Min":      Min(nil),
		"Max":      Max(nil),
		"Variance": Variance([]float64{1}),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s(empty) = %v, want NaN", name, v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Clamped out-of-range q.
	if got := Quantile(xs, -1); got != 1 {
		t.Errorf("Quantile(-1) = %v", got)
	}
	if got := Quantile(xs, 2); got != 5 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMedianProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		rng := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		med := Median(xs)
		if med < Min(xs)-1e-9 || med > Max(xs)+1e-9 {
			return false
		}
		// Invariance under permutation.
		ys := append([]float64(nil), xs...)
		rng.Shuffle(n, func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		if !almost(Median(ys), med, 1e-9) {
			return false
		}
		// Shift equivariance: median(xs + c) = median(xs) + c.
		for i := range ys {
			ys[i] = xs[i] + 7.5
		}
		return almost(Median(ys), med+7.5, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(-100, 100)
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	d := Describe([]float64{1, 2, 3, 4})
	if d.N != 4 || d.Mean != 2.5 || d.Median != 2.5 || d.Min != 1 || d.Max != 4 {
		t.Fatalf("Describe = %+v", d)
	}
}

func TestPercentImprovement(t *testing.T) {
	// Table I: IM-RP pLDDT Net Δ 7.7 vs CONT-V 5.8 → +32.8%.
	if p := PercentImprovement(5.8, 7.7); !almost(p, 32.758, 0.01) {
		t.Errorf("PercentImprovement = %v, want ~32.76", p)
	}
	if !math.IsNaN(PercentImprovement(0, 1)) {
		t.Error("PercentImprovement(0, ·) should be NaN")
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Errorf("perfect positive Pearson = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Errorf("perfect negative Pearson = %v", r)
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero-variance Pearson should be NaN")
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform gives Spearman exactly 1.
	xs := []float64{1, 5, 2, 8, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	if r := Spearman(xs, ys); !almost(r, 1, 1e-12) {
		t.Errorf("Spearman of monotone transform = %v, want 1", r)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(r[i], want[i], 1e-12) {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestSumEmptyAndKnown(t *testing.T) {
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
	if Sum([]float64{1.5, 2.5}) != 4 {
		t.Error("Sum wrong")
	}
}

func BenchmarkMedian1000(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Median(xs)
	}
}

func BenchmarkSpearman1000(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Spearman(xs, ys)
	}
}

func TestJainIndex(t *testing.T) {
	if !math.IsNaN(JainIndex(nil)) {
		t.Fatal("empty input must be NaN")
	}
	if JainIndex([]float64{3.7}) != 1 {
		t.Fatal("single sample must be perfectly fair")
	}
	if JainIndex([]float64{0, 0, 0}) != 1 {
		t.Fatal("all-zero set must be perfectly fair")
	}
	if JainIndex([]float64{2, 2, 2, 2}) != 1 {
		t.Fatal("equal shares must score 1")
	}
	// One tenant takes everything: J = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !almost(got, 0.25, 1e-12) {
		t.Fatalf("monopolized shares scored %v, want 0.25", got)
	}
	// Textbook example: (1+2+3)² / (3·(1+4+9)) = 36/42.
	if got := JainIndex([]float64{1, 2, 3}); !almost(got, 36.0/42.0, 1e-12) {
		t.Fatalf("JainIndex([1 2 3]) = %v, want %v", got, 36.0/42.0)
	}
	// Scale invariance and the (1/n, 1] range, property-checked.
	rng := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		xs := make([]float64, n)
		scaled := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			scaled[i] = xs[i] * 7.5
		}
		j := JainIndex(xs)
		if j < 1/float64(n)-1e-9 || j > 1+1e-9 {
			t.Fatalf("JainIndex(%v) = %v outside (1/n, 1]", xs, j)
		}
		if !almost(j, JainIndex(scaled), 1e-9) {
			t.Fatalf("JainIndex not scale-invariant: %v vs %v", j, JainIndex(scaled))
		}
	}
}
