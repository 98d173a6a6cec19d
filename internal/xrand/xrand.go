// Package xrand provides a small, fast, deterministic random number
// generator used throughout the IMPRESS simulators.
//
// Determinism matters here more than statistical perfection: every
// experiment in the repository must regenerate the same timeline and the
// same figures from the same seed, independent of map iteration order,
// goroutine interleaving, or the Go version's math/rand internals. The
// generator is SplitMix64 (Steele et al., "Fast Splittable Pseudorandom
// Number Generators"), which has a one-word state, passes BigCrush, and
// supports cheap key-derivation for creating independent substreams.
//
// Bulk normals come from the ziggurat row fills (AddZiggurat,
// FillZiggurat). On amd64 CPUs with AVX-512 F, DQ and VL, detected once
// at start-up, they run an assembly kernel that draws 16 words a step
// and finishes in scalar code every draw that leaves the fast path
// except those that need math.Exp or math.Log: a base-layer tail draw
// or a wedge y inside the squeeze band, about one cell in 400, which
// zigguratRow finishes in Go. Everywhere else the fills run
// zigguratRow. Both paths write the same bits and leave the generator
// in the same state. The same detection selects landscape's AVX-512
// ConditionalEnergies kernel (see AVX512); UseKernel switches both
// kernels at once, for tests and benchmarks.
package xrand

import "math"

// RNG is a deterministic pseudorandom generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
	spare float64 // cached second normal deviate
	has   bool
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seeded returns a generator seeded with seed, by value. Hot loops that
// create one generator per call keep it on the stack this way instead of
// heap-allocating through New.
func Seeded(seed uint64) RNG {
	return RNG{state: seed}
}

// Derive deterministically maps a parent seed and a label to a new seed.
// Substreams derived with distinct labels are statistically independent,
// which lets one experiment seed fan out to per-target, per-task and
// per-stage generators without coordination.
func Derive(seed uint64, label string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return mix(h)
}

// DeriveN is Derive for integer labels (e.g. per-index substreams).
func DeriveN(seed uint64, n uint64) uint64 {
	return mix(seed ^ mix(n+0x632be59bd9b4e019))
}

// HashBytes returns a 64-bit FNV-1a hash of b folded through the finalizer.
func HashBytes(b []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 0x100000001b3
	}
	return mix(h)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal deviate via the Box–Muller
// transform, caching the second deviate of each pair. It drives the
// sparse draws (cost-model jitter, fold observation noise); bulk draws
// use the cheaper Ziggurat. Sincos shares one argument reduction between
// the pair; its results are bit-identical to separate Sin and Cos calls
// (pinned by TestNormFloat64SincosBitIdentical), so golden traces are
// unchanged.
func (r *RNG) NormFloat64() float64 {
	if r.has {
		r.has = false
		return r.spare
	}
	var u float64
	for {
		u = r.Float64()
		if u > 1e-300 {
			break
		}
	}
	v := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.spare = mag * sin
	r.has = true
	return mag * cos
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 1e-300 {
			return -math.Log(u)
		}
	}
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
