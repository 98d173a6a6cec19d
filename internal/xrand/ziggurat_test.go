package xrand

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// zigguratSample draws n deviates from a fresh generator at seed.
func zigguratSample(seed uint64, n int) []float64 {
	r := New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Ziggurat()
	}
	return xs
}

func TestZigguratMoments(t *testing.T) {
	xs := zigguratSample(11, 1_000_000)
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean %v, want within ±0.005 of 0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("variance %v, want within ±0.01 of 1", variance)
	}
}

// TestZigguratTails checks the two-sided mass beyond 3σ and 4σ against the
// normal distribution's, within four binomial standard errors. Beyond 4σ
// every draw comes from the base layer's tail sampler (it starts at
// 3.44σ), so this also exercises the slow path.
func TestZigguratTails(t *testing.T) {
	xs := zigguratSample(12, 2_000_000)
	n := float64(len(xs))
	for _, k := range []float64{3, 4} {
		beyond := 0
		for _, x := range xs {
			if math.Abs(x) > k {
				beyond++
			}
		}
		p := math.Erfc(k / math.Sqrt2)
		se := math.Sqrt(p * (1 - p) / n)
		got := float64(beyond) / n
		if math.Abs(got-p) > 4*se {
			t.Errorf("mass beyond %vσ: %.3g, want %.3g ± %.2g", k, got, p, 4*se)
		}
	}
}

// TestZigguratKolmogorovSmirnov compares the empirical CDF of 10⁶ draws
// with the standard normal CDF: the KS statistic must stay below the
// 1% critical value 1.628/√n.
func TestZigguratKolmogorovSmirnov(t *testing.T) {
	xs := zigguratSample(13, 1_000_000)
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
		d = math.Max(d, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
	}
	if crit := 1.628 / math.Sqrt(n); d >= crit {
		t.Errorf("KS statistic %.5f, want below the 1%% critical value %.5f", d, crit)
	}
}

func TestZigguratDeterministic(t *testing.T) {
	a, b := New(14), Seeded(14)
	for i := 0; i < 100_000; i++ {
		if x, y := a.Ziggurat(), b.Ziggurat(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: %v vs %v from the same seed", i, x, y)
		}
	}
	c := New(15)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Ziggurat() == c.Ziggurat() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("distinct seeds agree on %d of 1000 draws", same)
	}
}

// TestZigguratOneWordFastPath pins the cost model: a draw inside its
// layer's core consumes exactly one Uint64, and the share of such draws
// matches the mean core share of the 128 layers (about 97.2%) within
// four binomial standard errors.
func TestZigguratOneWordFastPath(t *testing.T) {
	var want float64
	for _, k := range kn {
		want += float64(k) / (1 << 31) / float64(len(kn))
	}
	r := New(16)
	const n = 200_000
	oneWord := 0
	for i := 0; i < n; i++ {
		next := *r
		next.Uint64()
		r.Ziggurat()
		if r.state == next.state {
			oneWord++
		}
	}
	share := float64(oneWord) / n
	if se := math.Sqrt(want * (1 - want) / n); math.Abs(share-want) > 4*se {
		t.Errorf("%.4f of draws took one word, want %.4f ± %.4f", share, want, 4*se)
	}
}

// TestAddZigguratMatchesZiggurat pins the row fills against the per-draw
// loop they replace: for every row length, AddZiggurat and FillZiggurat
// write the bits that float32(float64(src[i]) + Ziggurat()*std) and
// float32(Ziggurat()*std) write — each value computed in float64 and
// rounded once — and leave the generator in the same state. Enough rows
// are drawn that the slow path's wedge and base-layer tail are both
// taken, classified by each draw's first word.
func TestAddZigguratMatchesZiggurat(t *testing.T) {
	const std = 0.45
	r, oracle := New(17), New(17)
	src := make([]float32, 21)
	for i := range src {
		src[i] = float32(i)/3 - 2.5
	}
	got, want := make([]float32, len(src)), make([]float32, len(src))
	var wedge, tail int
	for round := 0; round < 3000; round++ {
		for _, n := range []int{0, 1, 19, 20, 21} {
			fill := round%2 == 1
			for i := 0; i < n; i++ {
				peek := *oracle
				u := peek.Uint64()
				if j, k := int32(u), u>>32&0x7F; uint32(max(j, -j)) >= kn[k] {
					if k == 0 {
						tail++
					} else {
						wedge++
					}
				}
				if fill {
					want[i] = float32(oracle.Ziggurat() * std)
				} else {
					want[i] = float32(float64(src[i]) + oracle.Ziggurat()*std)
				}
			}
			if fill {
				r.FillZiggurat(got[:n], std)
			} else {
				r.AddZiggurat(got[:n], src, std)
			}
			for i := 0; i < n; i++ {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("round %d, length %d, fill %v: cell %d = %v, per-draw loop %v", round, n, fill, i, got[i], want[i])
				}
			}
			if *r != *oracle {
				t.Fatalf("round %d, length %d, fill %v: generator state %+v, per-draw loop %+v", round, n, fill, *r, *oracle)
			}
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("slow path not covered: %d wedge and %d tail draws", wedge, tail)
	}
	// src and dst may be the same row.
	a, b := New(18), New(18)
	row := slices.Clone(src)
	a.AddZiggurat(row, row, std)
	for i, x := range src {
		if y := float32(float64(x) + b.Ziggurat()*std); math.Float32bits(row[i]) != math.Float32bits(y) {
			t.Fatalf("aliased row: cell %d = %v, per-draw loop %v", i, row[i], y)
		}
	}
	if *a != *b {
		t.Fatalf("aliased row: generator state %+v, per-draw loop %+v", *a, *b)
	}
}

func BenchmarkZiggurat(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Ziggurat()
	}
}

// BenchmarkAddZiggurat adds noise to one 20-cell coupling-table row per
// iteration, the landscape's unit of bulk draws.
func BenchmarkAddZiggurat(b *testing.B) {
	r := New(1)
	src := make([]float32, 20)
	dst := make([]float32, 20)
	for i := 0; i < b.N; i++ {
		r.AddZiggurat(dst, src, 0.45)
	}
}
