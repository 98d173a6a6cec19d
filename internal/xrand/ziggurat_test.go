package xrand

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sort"
	"testing"
)

// referenceZigguratSlow is zigguratSlow as the standard library's
// algorithm states it, with math.Exp evaluated on every wedge draw. It is
// the oracle the shipped slow path is held to, value and generator state.
func (r *RNG) referenceZigguratSlow(u uint64) float64 {
	for {
		j := int32(u)
		i := u >> 32 & 0x7F
		x := float64(j) * float64(wn[i])
		a := uint32(j)
		if j < 0 {
			a = -a
		}
		if a < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(r.Float64()) * (1.0 / zigR)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		u = r.Uint64()
	}
}

// referenceZiggurat is Ziggurat with its slow draws finished by
// referenceZigguratSlow.
func (r *RNG) referenceZiggurat() float64 {
	u := r.Uint64()
	j := int32(u)
	i := u >> 32 & 0x7F
	if s := j >> 31; uint32(j^s-s) < kn[i] {
		return float64(j) * float64(wn[i])
	}
	return r.referenceZigguratSlow(u)
}

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

// forEachKernel runs f as one subtest per row-fill path, "generic" and
// "avx512", with AddZiggurat and FillZiggurat switched to that path. The
// avx512 subtest skips, saying why, on a CPU without the kernel.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range []string{"generic", "avx512"} {
		t.Run(name, func(t *testing.T) {
			if !slices.Contains(Kernels(), name) {
				t.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): the fills take the generic path only")
			}
			defer UseKernel(name)()
			t.Logf("row fills on the %s path", name)
			f(t)
		})
	}
}

// TestAddZigguratMatchesZiggurat pins the row fills against the per-draw
// loop they replace: for every row length, AddZiggurat and FillZiggurat
// write the bits that float32(float64(src[i]) + Ziggurat()*std) and
// float32(Ziggurat()*std) write — each value computed in float64 and
// rounded once — and leave the generator in the same state. The per-draw
// oracle finishes its slow draws in referenceZigguratSlow, so the row
// fills and the shipped slow path are both checked against it. Enough
// rows are drawn that the slow path's wedge and base-layer tail are both
// taken, classified by each draw's first word. The lengths cover a
// partial, a whole and a split eight-lane step of the AVX-512 kernel,
// the landscape's 20-cell rows and its 400-cell coupling tables; every
// path the CPU has is checked.
func TestAddZigguratMatchesZiggurat(t *testing.T) {
	forEachKernel(t, testAddZigguratMatchesZiggurat)
}

func testAddZigguratMatchesZiggurat(t *testing.T) {
	const std = 0.45
	r, oracle := New(17), New(17)
	src := make([]float32, 400)
	for i := range src {
		src[i] = float32(i%21)/3 - 2.5
	}
	got, want := make([]float32, len(src)), make([]float32, len(src))
	var wedge, tail int
	for round := 0; round < 3000; round++ {
		for _, n := range []int{0, 1, 7, 8, 9, 19, 20, 21, 400} {
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
					want[i] = float32(oracle.referenceZiggurat() * std)
				} else {
					want[i] = float32(float64(src[i]) + oracle.referenceZiggurat()*std)
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
	row := slices.Clone(src[:21])
	a.AddZiggurat(row, row, std)
	for i, x := range src[:len(row)] {
		if y := float32(float64(x) + b.referenceZiggurat()*std); math.Float32bits(row[i]) != math.Float32bits(y) {
			t.Fatalf("aliased row: cell %d = %v, per-draw loop %v", i, row[i], y)
		}
	}
	if *a != *b {
		t.Fatalf("aliased row: generator state %+v, per-draw loop %+v", *a, *b)
	}
}

// zigguratDigest returns the sha256 of 2²⁰ Ziggurat draws from a fresh
// generator at seed, each as its float64 bits, followed by the
// generator's end state.
func zigguratDigest(seed uint64) string {
	r := New(seed)
	buf := make([]byte, 0, 8<<20+8)
	for i := 0; i < 1<<20; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Ziggurat()))
	}
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(buf, r.state))
	return hex.EncodeToString(sum[:])
}

// zigguratRowDigest returns the sha256 of 10⁴ 20-cell rows from a fresh
// generator at seed, FillZiggurat and AddZiggurat in turn, each cell as
// its float32 bits, followed by the generator's end state.
func zigguratRowDigest(seed uint64) string {
	r := New(seed)
	src := make([]float32, 20)
	for i := range src {
		src[i] = float32(i)/3 - 2.5
	}
	row := make([]float32, len(src))
	var buf []byte
	for k := 0; k < 10_000; k++ {
		if k%2 == 0 {
			r.FillZiggurat(row, 0.45)
		} else {
			r.AddZiggurat(row, src, 0.9)
		}
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(buf, r.state))
	return hex.EncodeToString(sum[:])
}

// zigguratTableDigest returns the sha256 of one long call from a fresh
// generator at seed, each cell as its float32 bits, followed by the
// generator's end state: AddZiggurat over a 400-cell coupling table, or
// FillZiggurat over the 98×20 cells of a mined target's fields.
func zigguratTableDigest(seed uint64, add bool) string {
	r := New(seed)
	var row []float32
	if add {
		src := make([]float32, 400)
		for i := range src {
			src[i] = float32(i%23)/7 - 1.5
		}
		row = make([]float32, len(src))
		r.AddZiggurat(row, src, 0.9)
	} else {
		row = make([]float32, 98*20)
		r.FillZiggurat(row, 0.45)
	}
	var buf []byte
	for _, v := range row {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	sum := sha256.Sum256(binary.LittleEndian.AppendUint64(buf, r.state))
	return hex.EncodeToString(sum[:])
}

// TestZigguratStreamDigests pins the streams every seeded model and
// surrogate is drawn from, on every row-fill path the CPU has: a change
// to any draw, to the words a draw consumes or to a row fill's rounding
// changes a digest.
func TestZigguratStreamDigests(t *testing.T) {
	forEachKernel(t, testZigguratStreamDigests)
}

func testZigguratStreamDigests(t *testing.T) {
	for _, c := range []struct {
		seed                   uint64
		draws, rows, add, fill string
	}{
		{42, "4d90962885ccef9ac2339d2378a382d82b04784aad7d823082b983696c7de7cf", "721fdd524dd07ebf65891cede9ae7044f1ddab31e437379abef70f84fd68d1e8",
			"415ed38b0388bf4bae0e489bc3b01a518b8cc90e4ebdf1dbef503ca1a250862f", "b46737b8c9e9acf1749216ec72efce9a433328ec95cfd7b03b7cab2b7aa44261"},
		{7, "5fb1fc5520fe6b2bd47881eaf80a514a079cf82012521ef034249c1930128e6b", "350e4c26ff07bd597cdac48c86ce8b4cc886fdc8643e832711b29111e21d9f04",
			"7951195323bb9608e20171a40678ae790b89449d3131e5e251388df30ef9d6c9", "9bbe02b3e6411fd866b96cfe0a7dd347e19de69b2e31d5590a1a60f06735ff43"},
	} {
		if got := zigguratDigest(c.seed); got != c.draws {
			t.Errorf("seed %d: Ziggurat stream digest %s, want %s", c.seed, got, c.draws)
		}
		if got := zigguratRowDigest(c.seed); got != c.rows {
			t.Errorf("seed %d: row fill digest %s, want %s", c.seed, got, c.rows)
		}
		if got := zigguratTableDigest(c.seed, true); got != c.add {
			t.Errorf("seed %d: 400-cell AddZiggurat digest %s, want %s", c.seed, got, c.add)
		}
		if got := zigguratTableDigest(c.seed, false); got != c.fill {
			t.Errorf("seed %d: 98×20-cell FillZiggurat digest %s, want %s", c.seed, got, c.fill)
		}
	}
}

// TestZigguratSqueezeBrackets checks the literal squeeze band of every
// wedge layer on 2¹⁴ + 2 points of |j| from kn[i] to 2³¹ − 1, both ends
// included, and at 2³¹ (j = math.MinInt32): the band must hold
// exp(-x²/2), and its float32 rounding the wedge test compares against,
// with at least half the 1e-6 margin the tables were built with to
// spare. Between two grid points the chord's error moves by at most
// h²/8 for a step h (|d²/dx² exp(-x²/2)| ≤ 1), under 1e-9 here, so the
// band then holds on every |j| the wedge can draw. A failure logs the
// layer's band as the tables' derivation gives it.
func TestZigguratSqueezeBrackets(t *testing.T) {
	const margin, steps = 5e-7, 1 << 14
	for i := 1; i < len(kn); i++ {
		width := uint64(1<<31 - 1 - kn[i])
		for k := uint64(0); k <= steps+1; k++ {
			a := uint64(kn[i]) + min(k, steps)*width/steps + k/(steps+1)
			x := float64(a) * float64(wn[i])
			e := math.Exp(-.5 * x * x)
			e32 := float64(float32(e))
			c := zc0[i] + zm[i]*x
			if c-zlo[i] > min(e, e32)-margin || c+zhi[i] < max(e, e32)+margin {
				c0, m, lo, hi := deriveSqueeze(i)
				t.Fatalf("layer %d, |j| = %d: exp(-x²/2) = %v outside [%v, %v] with margin %v; derived band c0 %v, m %v, lo %v, hi %v",
					i, a, e, c-zlo[i], c+zhi[i], margin, c0, m, lo, hi)
			}
		}
	}
}

// deriveSqueeze returns layer i's squeeze band as the literal tables were
// built: the chord through the wedge's ends and the largest deviation of
// exp(-x²/2) below and above it over 20001 evenly spaced |j|, each plus
// 1e-6. Deviations under 1e-12 are the chord's own rounding at its ends
// and count as none. The tables hold lo and hi rounded up to three
// significant digits.
func deriveSqueeze(i int) (c0, m, lo, hi float64) {
	x0, x1 := float64(kn[i])*float64(wn[i]), (1<<31)*float64(wn[i])
	f0, f1 := math.Exp(-.5*x0*x0), math.Exp(-.5*x1*x1)
	m = (f1 - f0) / (x1 - x0)
	c0 = f0 - m*x0
	const n = 20000
	for k := uint64(0); k <= n; k++ {
		x := float64(uint64(kn[i])+k*(1<<31-uint64(kn[i]))/n) * float64(wn[i])
		d := math.Exp(-.5*x*x) - (c0 + m*x)
		lo, hi = max(lo, -d), max(hi, d)
	}
	if lo < 1e-12 {
		lo = 0
	}
	if hi < 1e-12 {
		hi = 0
	}
	return c0, m, lo + 1e-6, hi + 1e-6
}

// squeezeClass classifies a wedge draw the way zigguratSlow's squeeze
// does, from the generator r the draw would take its uniform from:
// -1 accepted below the band, +1 rejected above it, 0 decided by
// math.Exp.
func squeezeClass(r RNG, u uint64) int {
	i := u >> 32 & 0x7F
	x := float64(int32(u)) * float64(wn[i])
	y := float64(fn[i] + float32(r.Float64())*(fn[i-1]-fn[i]))
	c := zc0[i] + zm[i]*math.Abs(x)
	switch {
	case y < c-zlo[i]:
		return -1
	case y > c+zhi[i]:
		return 1
	}
	return 0
}

// TestZigguratSlowMatchesReference runs the slow path against
// referenceZigguratSlow on every first word of a 10⁸-word stream that
// misses its layer's core: both start from the same generator state and
// must return the same bits and end in the same state. It counts how the
// squeeze decides the wedge draws and requires all three outcomes, with
// math.Exp called on under a tenth of them.
func TestZigguratSlowMatchesReference(t *testing.T) {
	const words = 100_000_000
	r := New(19)
	var below, above, exact, tail int
	for n := 0; n < words; n++ {
		u := r.Uint64()
		j, i := int32(u), u>>32&0x7F
		if uint32(max(j, -j)) < kn[i] {
			continue
		}
		got, want := *r, *r
		if i == 0 {
			tail++
		} else {
			switch squeezeClass(got, u) {
			case -1:
				below++
			case 1:
				above++
			default:
				exact++
			}
		}
		x, y := got.zigguratSlow(u), want.referenceZigguratSlow(u)
		if math.Float64bits(x) != math.Float64bits(y) || got != want {
			t.Fatalf("word %d (%#x): slow path %v, state %+v; reference %v, state %+v", n, u, x, got, y, want)
		}
	}
	wedge := below + above + exact
	t.Logf("%d words: %d wedge draws (%d accepted below the band, %d rejected above, %d exact: %.2f%%), %d tail draws",
		words, wedge, below, above, exact, 100*float64(exact)/float64(wedge), tail)
	if below == 0 || above == 0 || exact == 0 || tail == 0 {
		t.Fatalf("squeeze outcomes not all covered: %d below, %d above, %d exact, %d tail", below, above, exact, tail)
	}
	if share := float64(exact) / float64(wedge); share >= 0.1 {
		t.Errorf("math.Exp decided %.2f%% of wedge draws, want under 10%%", 100*share)
	}
}

// FuzzZigguratSlow checks the slow path against referenceZigguratSlow
// for any first word and generator state: the same value bits and the
// same end state.
func FuzzZigguratSlow(f *testing.F) {
	f.Add(uint64(0x0000_0001_8000_0000), uint64(1)) // layer 1, j = math.MinInt32
	f.Add(uint64(0x0000_007f_7fff_ffff), uint64(2)) // layer 127, edge of the wedge
	f.Add(uint64(0x0000_0000_ffff_ffff), uint64(3)) // base layer, tail
	f.Add(uint64(0x0123_4567_89ab_cdef), uint64(4))
	f.Fuzz(func(t *testing.T, u, state uint64) {
		got, want := RNG{state: state}, RNG{state: state}
		x, y := got.zigguratSlow(u), want.referenceZigguratSlow(u)
		if math.Float64bits(x) != math.Float64bits(y) || got != want {
			t.Fatalf("u %#x, state %#x: slow path %v, end state %#x; reference %v, end state %#x", u, state, x, got.state, y, want.state)
		}
	})
}

// unmix inverts mix: mix(unmix(u)) == u.
func unmix(u uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := uint(0); i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		inv := c
		for i := 0; i < 6; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := unshift(u, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// TestZigguratKernelEdgeWords holds every row-fill path the CPU has to
// zigguratRow on the words at the fast path's edges, which a random
// stream meets about once in 2³¹ draws: in every layer, |j| one below
// kn (inside), at kn (outside), both signs, and j = math.MinInt32, 0 and
// math.MaxInt32. Each word is planted, by inverting mix, at every lane
// of an eight-lane step and in a row's last cell, and the rows are
// filled and added.
func TestZigguratKernelEdgeWords(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := make([]float32, 17)
		for i := range src {
			src[i] = float32(i)/5 - 1.7
		}
		got, want := make([]float32, len(src)+8), make([]float32, len(src))
		const canary = 0x7fc0_dead
		for k := uint64(0); k < 128; k++ {
			edge := int64(kn[k])
			for _, j := range []int64{edge - 1, edge, -(edge - 1), -edge, math.MinInt32, 0, math.MaxInt32} {
				u := 0x5a5a_5a00_0000_0000 | k<<32 | uint64(uint32(j))
				if mix(unmix(u)) != u {
					t.Fatalf("unmix(%#x) does not invert mix", u)
				}
				for pos := 0; pos < len(src); pos++ {
					for _, n := range []int{pos + 1, len(src)} {
						state := unmix(u) - uint64(pos+1)*0x9e3779b97f4a7c15
						for _, in := range [][]float32{nil, src[:n]} {
							for i := range got {
								got[i] = math.Float32frombits(canary)
							}
							r, g := RNG{state: state}, RNG{state: state}
							if in == nil {
								r.FillZiggurat(got[:n], 0.7)
							} else {
								r.AddZiggurat(got[:n], in, 0.7)
							}
							g.zigguratRow(want[:n], in, 0.7)
							for i := 0; i < n; i++ {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("layer %d, j %d at cell %d of %d, src %v: cell %d = %v, generic %v", k, j, pos, n, in != nil, i, got[i], want[i])
								}
							}
							for i := n; i < len(got); i++ {
								if math.Float32bits(got[i]) != canary {
									t.Fatalf("layer %d, j %d at cell %d of %d, src %v: cell %d past the row written", k, j, pos, n, in != nil, i)
								}
							}
							if r != g {
								t.Fatalf("layer %d, j %d at cell %d of %d, src %v: end state %#x, generic %#x", k, j, pos, n, in != nil, r.state, g.state)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzZigguratRow holds the AVX-512 kernel to zigguratRow for any
// generator state, row length up to 64, std and source row: the same
// bits in every cell and the same end state. A zero srcSeed fills (src
// nil); any other draws a finite source row from it.
func FuzzZigguratRow(f *testing.F) {
	if !haveAVX512() {
		f.Skip("this CPU lacks AVX-512 F, DQ or VL: only the generic path runs")
	}
	f.Add(uint64(1), uint8(64), 0.45, uint64(0))
	f.Add(uint64(17), uint8(20), 0.9, uint64(3))
	f.Add(uint64(5), uint8(9), -0.0, uint64(0))
	f.Add(uint64(6), uint8(7), math.Inf(1), uint64(4))
	f.Add(uint64(7), uint8(33), math.NaN(), uint64(5))
	f.Add(uint64(8), uint8(40), 5e-324, uint64(6))
	f.Fuzz(func(t *testing.T, state uint64, n uint8, std float64, srcSeed uint64) {
		n %= 65
		var src []float32
		if srcSeed != 0 {
			g := New(srcSeed)
			src = make([]float32, n)
			for i := range src {
				src[i] = float32(g.Ziggurat() * math.Ldexp(1, g.Intn(80)-40))
			}
		}
		got, want := make([]float32, n), make([]float32, n)
		a, b := RNG{state: state}, RNG{state: state}
		a.zigguratVector(got, src, std)
		b.zigguratRow(want, src, std)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("state %#x, n %d, std %v, srcSeed %d: cell %d = %v (%#x), generic %v (%#x)",
					state, n, std, srcSeed, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		if a != b {
			t.Fatalf("state %#x, n %d, std %v, srcSeed %d: end state %#x, generic %#x", state, n, std, srcSeed, a.state, b.state)
		}
	})
}

func BenchmarkZiggurat(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Ziggurat()
	}
}

// BenchmarkAddZiggurat adds noise to one 400-cell coupling table per
// iteration, the landscape's unit of bulk draws, on each row-fill path
// the CPU has.
func BenchmarkAddZiggurat(b *testing.B) {
	for _, name := range Kernels() {
		b.Run(name, func(b *testing.B) {
			defer UseKernel(name)()
			r := New(1)
			src := make([]float32, 400)
			dst := make([]float32, 400)
			for i := 0; i < b.N; i++ {
				r.AddZiggurat(dst, src, 0.45)
			}
		})
	}
}

// The ways a cell's draw can leave the fast path, by its first word and
// the words after it.
const (
	exitWedgeAccepted = iota // a wedge y below the squeeze band
	exitWedgeRejected        // a wedge y above it: the draw starts over
	exitBand                 // a wedge y inside it: math.Exp decides
	exitTail                 // the base layer's tail: math.Log
	exitCases
)

// exitCase classifies the draw whose first word the generator r draws
// next: -1 when the word is on the fast path.
func exitCase(r RNG) int {
	u := r.Uint64()
	j, k := int32(u), u>>32&0x7F
	switch {
	case uint32(max(j, -j)) < kn[k]:
		return -1
	case k == 0:
		return exitTail
	}
	switch squeezeClass(r, u) {
	case -1:
		return exitWedgeAccepted
	case 1:
		return exitWedgeRejected
	}
	return exitBand
}

// exitState returns a generator state whose first pos words are on the
// fast path and whose draw at cell pos is of the given exit case.
func exitState(t *testing.T, pos, kind int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 1<<24; seed++ {
		state := mix(seed ^ uint64(pos)<<40 ^ uint64(kind)<<48)
		r := RNG{state: state}
		fast := true
		for i := 0; i < pos && fast; i++ {
			fast = exitCase(r) < 0
			r.Uint64()
		}
		if fast && exitCase(r) == kind {
			return state
		}
	}
	t.Fatalf("no state puts exit case %d at cell %d", kind, pos)
	return 0
}

// TestZigguratKernelExitPaths plants each way a draw can leave the fast
// path — a wedge accepted, a wedge rejected and restarted with a fresh
// word, a y inside the squeeze band, and the base layer's tail — at the
// first cell of a row, in the middle and at the end of the kernel's
// 8-cell runs and 16-lane steps, at the edges of its 32-word blocks and
// in a row's partial last step, and holds every row-fill path the CPU
// has to zigguratRow: the same bits in every cell and the same end
// state, for fills and adds.
func TestZigguratKernelExitPaths(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := make([]float32, 80)
		for i := range src {
			src[i] = float32(i%13)/3 - 2
		}
		got, want := make([]float32, len(src)), make([]float32, len(src))
		for kind := 0; kind < exitCases; kind++ {
			for _, pos := range []int{0, 1, 4, 7, 8, 15, 16, 30, 31, 32, 33, 47, 63, 64, 65} {
				state := exitState(t, pos, kind)
				for _, n := range []int{pos + 1, pos + 2, pos + 9, len(src)} {
					for _, in := range [][]float32{nil, src[:n]} {
						r, g := RNG{state: state}, RNG{state: state}
						if in == nil {
							r.FillZiggurat(got[:n], 0.7)
						} else {
							r.AddZiggurat(got[:n], in, 0.7)
						}
						g.zigguratRow(want[:n], in, 0.7)
						for i := 0; i < n; i++ {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("exit case %d at cell %d of %d, src %v: cell %d = %v, generic %v", kind, pos, n, in != nil, i, got[i], want[i])
							}
						}
						if r != g {
							t.Fatalf("exit case %d at cell %d of %d, src %v: end state %#x, generic %#x", kind, pos, n, in != nil, r.state, g.state)
						}
					}
				}
			}
		}
	})
}
