// The ziggurat tables and the sampling algorithm below are taken from
// the Go standard library (src/math/rand/v2/normal.go), under this
// notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package xrand

import (
	"math"
	"slices"
)

// Ziggurat normals (Marsaglia & Tsang, "The Ziggurat Method for
// Generating Random Variables", J. Stat. Softw. 5(8), 2000) over 128
// layers. The tables are literals rather than values computed at start-up
// so every platform samples from bit-identical layers, and hence every
// seed yields the same stream everywhere.

// zigR is the start of the tail: the right edge of the base layer.
const zigR = 3.442619855899

// Ziggurat returns a standard normal deviate drawn by the ziggurat
// method. About 97% of draws take one Uint64 from the generator's own
// stream and return after a table lookup and a multiply: the low 32 bits
// are a signed abscissa, the next 7 pick the layer. The rest continue in
// zigguratSlow. It is several times cheaper than NormFloat64's Box–Muller
// (a logarithm, a square root and a sine/cosine per pair), which is why
// the landscape's bulk draws use it, a row at a time through AddZiggurat
// and FillZiggurat. The two methods give different streams from the same
// seed. Ziggurat itself stays the reference those row fills are tested
// against.
func (r *RNG) Ziggurat() float64 {
	u := r.Uint64()
	j := int32(u)
	i := u >> 32 & 0x7F
	if s := j >> 31; uint32(j^s-s) < kn[i] { // |j| < kn[i]: inside the layer's core
		return float64(j) * float64(wn[i])
	}
	return r.zigguratSlow(u)
}

// AddZiggurat sets dst[i] = float32(float64(src[i]) + z_i*std) for every
// i in order, where z_0, z_1, … are the deviates successive Ziggurat calls
// would return: the generator ends in the same state and every value has
// the bits of the per-call loop, computed in float64 and rounded once to
// float32 on store. It is the landscape's bulk-noise kernel; a caller
// gains most by passing a whole table per call. src must be at least as
// long as dst; the two may be the same slice but must not otherwise
// overlap.
func (r *RNG) AddZiggurat(dst, src []float32, std float64) {
	r.zigguratBulk(dst, src[:len(dst)], std)
}

// FillZiggurat sets dst[i] = float32(z_i*std), the deviates drawn as in
// AddZiggurat.
func (r *RNG) FillZiggurat(dst []float32, std float64) {
	r.zigguratBulk(dst, nil, std)
}

// cpuAVX512 records, once at start-up, whether this CPU runs the AVX-512
// kernels: haveAVX512 reads CPUID and XGETBV.
var cpuAVX512 = haveAVX512()

// avx512 selects the path of all three AVX-512 kernels: the row fills
// (zigguratVector, else zigguratRow) and the landscape's Gibbs sums and
// Boltzmann weights, which read it through AVX512. Both paths of each
// kernel write the same bits, and the row fills leave the generator in
// the same state. Only UseKernel changes it.
var avx512 = cpuAVX512

// AVX512 reports whether the AVX-512 kernels are selected: the row
// fills here and landscape's ConditionalEnergies and Boltzmann weights
// dispatch on it, so UseKernel switches all three at once.
func AVX512() bool { return avx512 }

func (r *RNG) zigguratBulk(dst, src []float32, std float64) {
	if avx512 {
		r.zigguratVector(dst, src, std)
		return
	}
	r.zigguratRow(dst, src, std)
}

// Kernels names the paths the three AVX-512 kernels (the row fills, and
// landscape's Gibbs sums and Boltzmann weights) can take on this CPU:
// "generic", then "avx512" where the CPU has AVX-512 F, DQ and VL. The
// kernels take the last one.
func Kernels() []string {
	if cpuAVX512 {
		return []string{"generic", "avx512"}
	}
	return []string{"generic"}
}

// UseKernel makes all three AVX-512 kernels take the named path, one of
// Kernels, and returns a function that restores the previous one. It
// lets tests and benchmarks compare the paths on one machine; no kernel
// may run while it switches.
func UseKernel(name string) (restore func()) {
	if !slices.Contains(Kernels(), name) {
		panic("xrand: no kernel path " + name + " on this CPU")
	}
	prev := avx512
	avx512 = name == "avx512"
	return func() { avx512 = prev }
}

// zigguratRow is the generic body of AddZiggurat (src of dst's length)
// and FillZiggurat (src nil). Each value is computed as the per-call loop
// computes it, float64(src[i]) + z*std or z*std, and rounded once on
// store, so neither form changes a bit. The row is read and written as
// float32 in this one pass: no float64 scratch row. The SplitMix64 state
// stays in a local across the row, so a fast-path draw costs no memory
// traffic beyond the two table reads; the few draws that leave the fast
// path store it back for zigguratSlow and reload it after. It is the only
// path off amd64 and on CPUs without AVX-512, and the reference the
// AVX-512 kernel is tested against.
func (r *RNG) zigguratRow(dst, src []float32, std float64) {
	s := r.state
	for i := range dst {
		s += 0x9e3779b97f4a7c15
		u := mix(s)
		j := int32(u)
		k := u >> 32 & 0x7F
		var z float64
		if sg := j >> 31; uint32(j^sg-sg) < kn[k] {
			z = float64(j) * float64(wn[k])
		} else {
			r.state = s
			z = r.zigguratSlow(u)
			s = r.state
		}
		if src == nil {
			dst[i] = float32(z * std)
		} else {
			dst[i] = float32(float64(src[i]) + z*std)
		}
	}
	r.state = s
}

// zigguratSlow finishes a Ziggurat draw whose first word u fell outside
// its layer's rectangle core: the wedge above the core is accepted
// against the density, the base layer's overhang samples the tail
// beyond zigR, and a rejection starts over with a fresh word. Every
// decision, and so every value and every word consumed, is the standard
// library's; the wedge test only skips math.Exp where a linear squeeze
// already decides it (see zc0).
func (r *RNG) zigguratSlow(u uint64) float64 {
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
		// The wedge: accept when y falls under the density. The squeeze
		// band brackets exp(-x²/2) over the whole wedge with a margin far
		// above float32 rounding, so a y below it is under the density and
		// a y above it is over; only a y inside the band, about 7% of
		// wedge draws, needs the exponential to decide.
		y := float64(fn[i] + float32(r.Float64())*(fn[i-1]-fn[i]))
		c := zc0[i] + zm[i]*math.Abs(x)
		if y < c-zlo[i] || y <= c+zhi[i] && float32(y) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		u = r.Uint64()
	}
}

// The layer tables: |j| < kn[i] puts a draw inside layer i's rectangle
// core, wn[i] scales j to the abscissa x, and fn[i] is the density
// exp(-x²/2) at the layer's outer edge.
var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
var fn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}

// The wedge squeeze: over layer i's wedge, |x| from kn[i]·wn[i] to
// 2³¹·wn[i], the density exp(-x²/2) lies within [C − zlo[i], C + zhi[i]]
// of its chord C = zc0[i] + zm[i]·|x|. zc0 and zm are the chord through
// the wedge's two ends; zlo and zhi are the largest deviation below and
// above the chord over 20001 evenly spaced |j|, plus 1e-6, rounded up to
// three significant digits. The margin dwarfs both float32 rounding of
// the density (below 3e-8) and the chord's error between grid points
// (below 1e-10), so the band decides exactly as math.Exp would. Layer 0
// has no wedge. TestZigguratSqueezeBrackets checks the band on a dense
// grid of every layer.
var zc0 = [128]float64{
	0, 1, 1.0457526009905769, 1.0687141734357943, 1.0870663209030762,
	1.1026038932433226, 1.1161096725705473, 1.1280261439142463,
	1.1386376221131198, 1.1481417561544662, 1.1566836067614858,
	1.164373872806868, 1.1712996945642473, 1.1775313042888058,
	1.183126423202806, 1.18813331490458, 1.1925928216827424,
	1.1965399716665321, 1.2000050705253846, 1.2030146117348357,
	1.2055918827582897, 1.2077575545093384, 1.209530035665465,
	1.2109258296829992, 1.2119598105589207, 1.2126454325501266,
	1.2129949179996151, 1.2130194091616782, 1.2127290985150496,
	1.2121333375734813, 1.2112407201726945, 1.2100591863957812,
	1.2085960492205996, 1.2068581098731235, 1.2048516422863278,
	1.2025825193655413, 1.2000561733691666, 1.197277669108314,
	1.1942517555083865, 1.1909828338607589, 1.1874750106426155,
	1.183732198676042, 1.179758000402757, 1.1755557509334404,
	1.171128692180723, 1.166479704011837, 1.1616116283211975,
	1.1565270589786119, 1.1512284373706962, 1.1457179751481597,
	1.1399979134855909, 1.134070096596234, 1.1279365423546368,
	1.1215988310964597, 1.115058651118417, 1.1083174263805282,
	1.1013766177261584, 1.0942374350971558, 1.0869010251221543,
	1.0793684215816346, 1.0716406913998031, 1.063718607574608,
	1.055602996552207, 1.047294542726167, 1.0387937930549582,
	1.0301012376670053, 1.0212174014907573, 1.0121425470522831,
	1.0028769095516172, 0.9934207141985437, 0.9837740238596693,
	0.9739368297043383, 0.9639090625372704, 0.9536905209230365,
	0.9432809666912697, 0.932680054835858, 0.9218873457707717,
	0.9109024105171069, 0.8997245801815998, 0.8883531394310524,
	0.8767872572786771, 0.865026195836211, 0.853068868925644,
	0.8409140504809351, 0.8285607859578941, 0.8160075710545287,
	0.8032531499525676, 0.790295692598306, 0.7771337059928825,
	0.7637654129419229, 0.7501886134296839, 0.7364014306451536,
	0.7224014133508869, 0.7081862055508599, 0.6937530597468802,
	0.6790993350663057, 0.6642216603864948, 0.6491169491558166,
	0.6337817979439767, 0.6182121146976398, 0.602404112529578,
	0.5863532526844858, 0.570054573959223, 0.5535032553816362,
	0.5366934030785845, 0.5196191519376196, 0.5022740384859237,
	0.48465056314053007, 0.46674116440984764, 0.4485371526725004,
	0.4300288696434397, 0.41120589654020356, 0.39205665737516054,
	0.3725681514056433, 0.35272563685984615, 0.33251267867446405,
	0.3119101708106248, 0.29089666091834254, 0.26944674168484073,
	0.24753054164617086, 0.2251125020492301, 0.2021490358937213,
	0.1785857475416875, 0.15435218994453823, 0.12935337092354854,
	0.10345196722845548, 0.07642586603382027, 0.04782220344561208,
}
var zm = [128]float64{
	0, -0.13366697820145898, -0.30167687560156203, -0.36495430795476586,
	-0.40797912243906326, -0.4405227778148474, -0.4664627043831872,
	-0.48779193047697056, -0.5056876161475035, -0.520909852562104,
	-0.5339812066499074, -0.5452779962566516, -0.5550812823797348,
	-0.5636070836169734, -0.5710253963259657, -0.5774727243971096,
	-0.583060434084736, -0.5878807687833988, -0.5920110383309353,
	-0.5955167954028806, -0.5984540993017334, -0.6008713720980683,
	-0.6028107031498993, -0.604308953226487, -0.6053986128687983,
	-0.6061084729882129, -0.6064641830813439, -0.6064887020931494,
	-0.6062026725729532, -0.6056247297452318, -0.6047717510331682,
	-0.6036590971508895, -0.6023007567581329, -0.6007095561176213,
	-0.5988972313683526, -0.5968746183465705, -0.5946516807869545,
	-0.592237632309888, -0.5896410296583026, -0.5868697879784022,
	-0.5839312646295224, -0.5808323762522165, -0.5775795299622908,
	-0.5741786873379288, -0.5706355281182609, -0.5669552541531262,
	-0.5631428676063125, -0.5592030196281406, -0.5551401014692383,
	-0.5509581993875703, -0.5466613037197481, -0.5422529979108082,
	-0.5377368965061898, -0.5331161999639501, -0.5283941064142913,
	-0.5235735466001845, -0.5186574086765617, -0.5136483390511506,
	-0.5085488832358506, -0.5033614563987439, -0.49808844837952676,
	-0.4927320046147178, -0.4872942687954905, -0.4817772537182122,
	-0.47618285015436185, -0.47051288467198243, -0.4647691815781206,
	-0.4589533735673551, -0.45306705896661287, -0.4471118144026597,
	-0.4410891013978412, -0.4350003275873846, -0.4288468564556816,
	-0.4226299662497709, -0.4163509116251015, -0.4100108836430794,
	-0.40361102053186454, -0.39715247243714785, -0.390636256522382,
	-0.384063375075685, -0.37743477793012853, -0.37075148421540044,
	-0.3640143333454304, -0.35722411021549766, -0.35038177634470535,
	-0.3434880153846294, -0.3365436799004707, -0.3295493445402236,
	-0.32250580623029307, -0.31541374959367563, -0.3082736824864884,
	-0.30108633459752293, -0.2938521901466367, -0.2865718445663951,
	-0.27924575871993235, -0.27187451990437106, -0.26445842714398643,
	-0.25699801011975953, -0.24949373355938442, -0.24194582946464066,
	-0.2343547927953802, -0.22672087990810416, -0.21904428686138722,
	-0.2113254279702287, -0.20356438420974085, -0.19576143959737374,
	-0.1879168106782898, -0.18003048036543876, -0.17210266898396706,
	-0.16413339234049062, -0.15612258298791823, -0.14807023339431083,
	-0.13997628595483763, -0.13184059817369423, -0.12366290887059095,
	-0.11544297848296373, -0.10718034219056609, -0.09887463892316324,
	-0.09052522715286013, -0.08213134229658532, -0.07369210667221143,
	-0.06520633352765863, -0.056672525973382896, -0.048088579395812306,
	-0.03945145187909599, -0.03075590146183042, -0.02199038231698373,
	-0.013115759644954771,
}
var zlo = [128]float64{
	0, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1.29e-06, 1.87e-06,
	2.41e-06, 2.91e-06, 3.36e-06, 3.79e-06, 4.18e-06, 4.54e-06, 4.89e-06,
	5.21e-06, 5.51e-06, 5.79e-06, 6.06e-06, 6.31e-06, 6.55e-06, 6.78e-06,
	7e-06, 7.21e-06, 7.42e-06, 7.61e-06, 7.8e-06, 7.99e-06, 8.17e-06,
	8.34e-06, 8.51e-06, 8.68e-06, 8.84e-06, 9.01e-06, 9.17e-06, 9.32e-06,
	9.48e-06, 9.64e-06, 9.79e-06, 9.94e-06, 1.01e-05, 1.03e-05, 1.05e-05,
	1.06e-05, 1.08e-05, 1.09e-05, 1.11e-05, 1.12e-05, 1.14e-05, 1.16e-05,
	1.17e-05, 1.19e-05, 1.21e-05, 1.23e-05, 1.25e-05, 1.27e-05, 1.28e-05,
	1.3e-05, 1.33e-05, 1.35e-05, 1.37e-05, 1.39e-05, 1.41e-05, 1.44e-05,
	1.46e-05, 1.49e-05, 1.52e-05, 1.55e-05, 1.58e-05, 1.61e-05, 1.64e-05,
	1.67e-05, 1.71e-05, 1.75e-05, 1.78e-05, 1.83e-05, 1.87e-05, 1.92e-05,
	1.97e-05, 2.02e-05, 2.08e-05, 2.14e-05, 2.2e-05, 2.27e-05, 2.34e-05,
	2.43e-05, 2.51e-05, 2.61e-05, 2.72e-05, 2.83e-05, 2.96e-05, 3.1e-05,
	3.26e-05, 3.44e-05, 3.65e-05, 3.89e-05, 4.16e-05, 4.49e-05, 4.88e-05,
	5.36e-05, 5.95e-05, 6.72e-05, 7.75e-05, 9.21e-05, 0.000115, 0.000154,
	0.000239,
}
var zhi = [128]float64{
	0, 0.00898, 0.000877, 0.000397, 0.000234, 0.000156, 0.000112,
	8.42e-05, 6.55e-05, 5.22e-05, 4.23e-05, 3.48e-05, 2.89e-05, 2.42e-05,
	2.04e-05, 1.72e-05, 1.45e-05, 1.23e-05, 1.03e-05, 8.62e-06, 7.17e-06,
	5.9e-06, 4.78e-06, 3.79e-06, 2.9e-06, 2.11e-06, 1.39e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
	1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06, 1e-06,
}
