package landscape

import (
	"math"

	"impress/internal/protein"
	"impress/internal/xrand"
)

// The constants of the FMA path of amd64's math.Exp
// ($GOROOT/src/math/exp_amd64.s, after Shibata's SLEEF method).
const (
	log2e       = 1.4426950408889634073599246810018920
	ln2Hi       = 0.69314718055966295651160180568695068359375
	ln2Lo       = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
	// roundMagic rounds a float64 below 2^51 in magnitude to the nearest
	// integer, ties to even: t+roundMagic lies in [2^52, 2^53), where the
	// spacing of float64 is 1.
	roundMagic = 0x1.8p52
)

// boltzmann returns e**x with the bits of the FMA path of amd64's
// math.Exp, on every platform: the argument reduction by k = round(x·log2e)
// in two fused steps, the degree-8 Taylor polynomial of e**(r/16) and
// four squarings, the ldexp by 2**k with its denormal, underflow and
// overflow tails, and NaN and ±Inf returned as that path returns them.
// Each fused step is math.FMA, which is exact everywhere; each product
// that an add follows is rounded by a float64 conversion, so a compiler
// that fuses multiply-adds cannot fuse it. The Gibbs weights and the
// metric sigmoids take it, so the bytes they feed do not depend on the
// host's exp.
func boltzmann(x float64) float64 {
	if x > expOverflow { // +Inf too
		return math.Inf(1)
	}
	t := float64(x * log2e)
	if !(t >= -2048) {
		if x != x { // NaN
			return x
		}
		// -Inf, or k far below the denormal range, where the result
		// underflows (amd64's CVTSD2SL gives k = -2^31 below -2^31, which
		// does too).
		return 0
	}
	k := float64(t+roundMagic) - roundMagic
	r := math.FMA(-k, ln2Hi, x)
	r = math.FMA(-k, ln2Lo, r)
	r *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	r = float64(r * float64(r+2))
	r = float64(r * float64(r+2))
	r = float64(r * float64(r+2))
	r = math.FMA(r, r+2, 1)
	// r·2**k, the biased exponent built as an integer.
	e := int64(k) + 0x3ff
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3fe) << 52)
		e = 1
	} else if e >= 0x7ff {
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// boltzmannWeights sets w[a] to the Boltzmann weight of cond[a] at temp,
// boltzmann(-(cond[a]-minE)/temp), and to exactly 1 where cond[a] equals
// minE. It runs the AVX-512 kernel (weightsAVX512) when xrand selects
// its AVX-512 kernels, else weightsGo; both write the same bits.
func boltzmannWeights(w, cond *[protein.NumAA]float64, minE, temp float64) {
	if xrand.AVX512() && weightsAVX512(w, cond, minE, temp) {
		return
	}
	weightsGo(w, cond, minE, temp)
}

// weightsGo is boltzmannWeights in Go: the only path off amd64 and on
// CPUs without AVX-512, the kernel's fallback, and the reference it is
// tested against.
func weightsGo(w, cond *[protein.NumAA]float64, minE, temp float64) {
	for a, e := range cond {
		x := 1.0 // exp(-0): the minimum's weight, exactly
		if e != minE {
			x = boltzmann(-(e - minE) / temp)
		}
		w[a] = x
	}
}

// minimum returns the least of cond, scanning in index order: a NaN at
// index 0 is returned, a later NaN is passed over, and of equal minima
// (+0 and -0) the first is kept.
func minimum(cond *[protein.NumAA]float64) float64 {
	m := cond[0]
	for _, e := range cond[1:] {
		if e < m {
			m = e
		}
	}
	return m
}
