// Package stats provides the descriptive statistics used by the IMPRESS
// evaluation: medians and standard deviations for the figure error bars,
// the percent improvements of Table I, Jain's fairness index, and the
// rank correlations used to validate the MPNN/AlphaFold simulators
// against each other.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs (0 for empty input).
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean. It returns NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Median returns the middle value (average of the two middle values for
// even-length input). It returns NaN for empty input and does not modify
// xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics (type-7, the R/NumPy default). It returns NaN
// for empty input and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Variance returns the unbiased sample variance (n-1 denominator). It
// returns NaN for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum (NaN for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (NaN for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary holds the descriptive statistics reported in the figures: the
// bars show medians, the error bars show half a standard deviation.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
}

// Describe computes a Summary of xs.
func Describe(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// JainIndex returns Jain's fairness index (Σx)² / (n·Σx²) over a set of
// per-tenant allocation metrics: 1 when every tenant gets an identical
// share, approaching 1/n as one tenant takes everything. It returns NaN
// for empty input and 1 for a single sample or an all-zero set (nothing
// was allocated unevenly).
func JainIndex(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// PercentImprovement returns the relative improvement of b over a in
// percent, as used for the parenthesised values in Table I. For metrics
// where lower is better, negate the inputs before calling.
func PercentImprovement(a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	return (b - a) / math.Abs(a) * 100
}

// Pearson returns the Pearson correlation coefficient of paired samples.
// It returns NaN if fewer than two pairs or if either side has zero
// variance. Inputs must have equal length.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of paired samples,
// handling ties by mid-ranking. No campaign computes it; the landscape
// and mpnn tests check that likelihoods track energies with it, so it
// and the Pearson and Ranks it builds on stay outside the test files.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Spearman length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based mid-ranks of xs (ties share the average of the
// ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
