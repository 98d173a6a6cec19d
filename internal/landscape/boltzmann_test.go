package landscape

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"impress/internal/protein"
	"impress/internal/xrand"
)

// fmaProbes are arguments where the FMA path of amd64's math.Exp rounds
// differently from its other path or from the pure-Go exp, with the FMA
// path's bits.
var fmaProbes = []struct {
	x    float64
	bits uint64
}{
	{-0.334, 0x3fe6e9e99f1af995},
	{-2.28, 0x3fba2f4c3abd93d7},
	{1.147, 0x4009309aae127461},
}

// expArg returns the i-th argument of a differential or digest set from
// g, cycling through four kinds: the range where exp is finite and
// nonzero and a little beyond it on both ends (the denormal, underflow
// and overflow tails), the Gibbs weights' arguments [-30, 0], random
// bit patterns (every exponent, NaN and ±Inf among them), and ties of
// the rounding of x·log2e, a few ulps either side of (n+½)·ln2.
func expArg(g *xrand.RNG, i int) float64 {
	switch i % 4 {
	case 0:
		return g.Range(-746, 710)
	case 1:
		return -30 * g.Float64()
	case 2:
		return math.Float64frombits(g.Uint64())
	default:
		x := (float64(g.Intn(2200)-1100) + 0.5) * math.Ln2
		n := g.Intn(9) - 4
		for range max(n, -n) {
			x = math.Nextafter(x, math.Inf(n))
		}
		return x
	}
}

// expEdges are the arguments at boltzmann's branch points and tails.
var expEdges = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	expOverflow, math.Nextafter(expOverflow, 1000), math.Nextafter(expOverflow, 0),
	709.78, 709.7827128933841, -708.3964185322641, -708.4, -745.1332191019411, -745.1332191019412, -745.2,
	-1419.6, -1420, -2048 / log2e, -1e9, -3e9, 1e-300, -1e-300, 1, -1, 708, -708,
}

// TestBoltzmannMatchesMathExp holds boltzmann to math.Exp bit for bit
// on 10⁸ arguments (expArg) and the edge cases, where math.Exp runs
// amd64's FMA path, and checks that the arguments reached every tail:
// denormal results, underflow to 0 and overflow to +Inf from finite
// arguments, -0, NaN and ±Inf. It skips where a probe shows that
// math.Exp takes another path: off amd64, on CPUs without FMA, and
// under GODEBUG=cpu.fma=off.
func TestBoltzmannMatchesMathExp(t *testing.T) {
	for _, p := range fmaProbes {
		if got := math.Float64bits(math.Exp(p.x)); got != p.bits {
			t.Skipf("math.Exp(%v) = %#x, not %#x: math.Exp is not on amd64's FMA path here", p.x, got, p.bits)
		}
	}
	const n = 100_000_000
	type tally struct{ denormal, underflow, overflow, negZero, nan, inf int }
	check := func(x float64, c *tally) bool {
		got, want := boltzmann(x), math.Exp(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("boltzmann(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
			return false
		}
		switch {
		case math.IsNaN(x):
			c.nan++
		case math.IsInf(x, 0):
			c.inf++
		case x == 0 && math.Signbit(x):
			c.negZero++
		case got == 0:
			c.underflow++
		case math.IsInf(got, 1):
			c.overflow++
		case got < 0x1p-1022:
			c.denormal++
		}
		return true
	}
	var total tally
	for _, x := range expEdges {
		check(x, &total)
	}
	workers := runtime.GOMAXPROCS(0)
	counts := make([]tally, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := xrand.New(xrand.DeriveN(0xb017, uint64(w)))
			for i := w; i < n; i += workers {
				if !check(expArg(g, i), &counts[w]) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range counts {
		total.denormal += c.denormal
		total.underflow += c.underflow
		total.overflow += c.overflow
		total.negZero += c.negZero
		total.nan += c.nan
		total.inf += c.inf
	}
	t.Logf("tails reached: %+v", total)
	if total.denormal == 0 || total.underflow == 0 || total.overflow == 0 || total.negZero == 0 || total.nan == 0 || total.inf == 0 {
		t.Errorf("a tail was not reached: %+v", total)
	}
}

// TestBoltzmannDigest pins boltzmann's bits over a fixed argument set,
// 2¹⁶ arguments from expArg and the edge cases, on every host: the
// same digest on amd64 with and without FMA, on 386 and on arm64 says
// the Gibbs weights and the metric sigmoids do not depend on the host.
func TestBoltzmannDigest(t *testing.T) {
	var buf []byte
	for _, x := range expEdges {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(boltzmann(x)))
	}
	g := xrand.New(0xd16e57)
	for i := range 1 << 16 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(boltzmann(expArg(g, i))))
	}
	sum := sha256.Sum256(buf)
	const want = "6e256ca72f3e9df6c146a564ccb07bb10cc0fdb1eae6980e435eab03a4a1e616"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("boltzmann digest %s, want %s", got, want)
	}
}

// weightsSpecials are the values FuzzBoltzmannWeights writes into chosen
// lanes: the zeros of both signs, NaN, the infinities, the largest
// finite values and the smallest denormal.
var weightsSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// FuzzBoltzmannWeights holds the AVX-512 weights kernel to weightsGo bit
// for bit. The conditional energies are normals at a fuzzed scale, with
// the minimum copied into a second lane (duplicate minima), and up to
// two lanes, the four-lane tail among them, set to weightsSpecials;
// when both are zeros the later lane takes the other sign. minE is the
// Go loop's minimum, as the samplers pass it, or a fuzzed value.
func FuzzBoltzmannWeights(f *testing.F) {
	if !slices.Contains(xrand.Kernels(), "avx512") {
		f.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): only the generic path runs")
	}
	f.Add(uint64(1), 1.0, 1.35, uint8(3), uint8(255), uint8(0), uint8(0), false, 0.0)
	f.Add(uint64(2), 40.0, 0.15, uint8(17), uint8(0), uint8(19), uint8(1), false, 0.0)
	f.Add(uint64(3), 1e3, 0.15, uint8(19), uint8(2), uint8(16), uint8(2), false, 0.0)
	f.Add(uint64(4), 0.0, 2.0, uint8(0), uint8(1), uint8(8), uint8(3), false, 0.0)
	f.Add(uint64(5), 1e-300, 1e-3, uint8(7), uint8(4), uint8(15), uint8(4), true, -1.0)
	f.Add(uint64(6), 3.0, 0.15, uint8(12), uint8(7), uint8(12), uint8(5), true, math.Inf(-1))
	f.Add(uint64(7), 100.0, 0.15, uint8(8), uint8(6), uint8(18), uint8(6), false, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, scale, temp float64, dup, special, at, at2 uint8, fuzzMin bool, minE float64) {
		var cond [protein.NumAA]float64
		g := xrand.New(seed)
		for a := range cond {
			cond[a] = g.NormFloat64() * scale
		}
		cond[int(dup)%protein.NumAA] = minimum(&cond)
		if int(special) < len(weightsSpecials) {
			v := weightsSpecials[special]
			cond[int(at)%protein.NumAA] = v
			if v == 0 {
				v = -v
			}
			cond[int(at2)%protein.NumAA] = v
		}
		if !fuzzMin {
			minE = minimum(&cond)
		}
		defer xrand.UseKernel("avx512")()
		var got, want [protein.NumAA]float64
		boltzmannWeights(&got, &cond, minE, temp)
		weightsGo(&want, &cond, minE, temp)
		if !sameBits(got[:], want[:]) {
			t.Fatalf("cond %v, minE %v, temp %v: kernel %v, Go %v", cond, minE, temp, got, want)
		}
	})
}

// TestWeightsKernelBounds: the kernel takes every position whose
// arguments all lie in [-708, 708] and refuses one with a lane outside
// it or NaN, in each of its three blocks; it writes the 20 weights and
// nothing past them.
func TestWeightsKernelBounds(t *testing.T) {
	if !slices.Contains(xrand.Kernels(), "avx512") {
		t.Skip("this CPU lacks AVX-512 F, DQ or VL (or the OS does not save its registers): only the generic path runs")
	}
	var cond [protein.NumAA]float64
	for a := range cond {
		cond[a] = float64(a)
	}
	var out struct {
		w     [protein.NumAA]float64
		guard [4]float64
	}
	sentinel := [4]float64{-1, -2, -3, -4}
	for _, c := range []struct {
		name   string
		lane   int
		e      float64
		wantOK bool
	}{
		{"in range", 0, 0, true},
		{"-708 in the first block", 3, 708, true},
		{"below -708 in the first block", 3, 708.5, false},
		{"below -708 in the second block", 8, 1000, false},
		{"below -708 in the tail", 19, 709, false},
		{"NaN in the tail", 16, math.NaN(), false},
		{"+Inf in the second block", 15, math.Inf(1), false},
	} {
		in := cond
		in[c.lane] = c.e
		out.guard = sentinel
		if ok := weightsAVX512(&out.w, &in, minimum(&in), 1); ok != c.wantOK {
			t.Errorf("%s: kernel ok %v, want %v", c.name, ok, c.wantOK)
		}
		if out.guard != sentinel {
			t.Errorf("%s: kernel wrote past the 20 weights: %v", c.name, out.guard)
		}
	}
}

// BenchmarkBoltzmannWeights times the 20 weights of one Gibbs step, the
// conditional energies of a mined screen target's size cycling through
// every receptor position, on each kernel path the CPU has.
func BenchmarkBoltzmannWeights(b *testing.B) {
	st := testStructure(1, 94, 4)
	m := New(st, 1, DefaultConfig())
	full := st.FullSequence()
	conds := make([][protein.NumAA]float64, m.RecLen)
	mins := make([]float64, m.RecLen)
	for pos := range conds {
		m.ConditionalEnergies(full, pos, conds[pos][:])
		mins[pos] = minimum(&conds[pos])
	}
	var w [protein.NumAA]float64
	for _, name := range xrand.Kernels() {
		b.Run(name, func(b *testing.B) {
			defer xrand.UseKernel(name)()
			pos := 0
			for b.Loop() {
				boltzmannWeights(&w, &conds[pos], mins[pos], 1.35)
				if pos++; pos == len(conds) {
					pos = 0
				}
			}
		})
	}
}
