// Package stats implements the statistical machinery used by the paper's
// validation section (Section 4): descriptive statistics, rank and linear
// correlation (including the Kendall tau used for the ranking comparison of
// Section 4.1), principal-component factor analysis (Table 3), ordinary
// least-squares regression with significance testing (Table 3), and one-way
// ANOVA with Bonferroni post-hoc pairwise comparisons (Table 4).
//
// Everything is implemented from scratch on top of the standard library: a
// dense matrix type, a Jacobi eigensolver for symmetric matrices, and the
// incomplete beta / gamma functions that back the Student t and Fisher F
// distributions.
//
//informer:deterministic
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned by estimators that need more observations
// than were supplied (for example a variance of a single point, or a
// regression with fewer rows than coefficients).
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrDimensionMismatch is returned when paired samples or matrix operands
// have incompatible shapes.
var ErrDimensionMismatch = errors.New("stats: dimension mismatch")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when fewer than two observations are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population (n) variance of xs.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two central order
// statistics for even n). It panics on an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R default).
// It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedQuantile(sorted, q)
}

// SortedQuantile returns the q-th quantile of an already-sorted (ascending)
// slice, with the same type-7 interpolation as Quantile. Reading several
// quantiles from one sorted slice amortises the sort, which is what the
// quality benchmark derivation relies on. It panics on an empty slice.
func SortedQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: SortedQuantile of empty slice")
	}
	lo, hi, frac := quantileRanks(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileRanks returns the one or two order statistics (ranks lo and
// hi, equal when the quantile lands on one) that the type-7 q-th quantile
// of n sorted values interpolates between, and the weight of hi.
func quantileRanks(n int, q float64) (lo, hi int, frac float64) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h := q * float64(n-1)
	lo = int(math.Floor(h))
	hi = int(math.Ceil(h))
	return lo, hi, h - float64(lo)
}

// SortedQuantiles reads multiple quantiles from an already-sorted slice.
func SortedQuantiles(sorted []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = SortedQuantile(sorted, q)
	}
	return out
}

// Quantiles sorts one copy of xs and returns the requested quantiles,
// paying for a single sort however many quantiles are read.
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Quantiles of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return SortedQuantiles(sorted, qs...)
}

// Standardize returns (xs - mean) / stddev. When the standard deviation is
// zero the centred values are returned unscaled, so a constant column maps
// to all zeros rather than NaNs.
func Standardize(xs []float64) []float64 {
	m := Mean(xs)
	sd := StdDev(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		if sd > 0 {
			out[i] = (x - m) / sd
		} else {
			out[i] = x - m
		}
	}
	return out
}

// Covariance returns the unbiased sample covariance of the paired samples
// xs and ys.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrDimensionMismatch
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1), nil
}

// Describe summarises a sample.
type Describe struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Describe for xs. A zero Describe is returned for an
// empty sample.
func Summarize(xs []float64) Describe {
	if len(xs) == 0 {
		return Describe{}
	}
	return Describe{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// Ranks assigns 1-based fractional ranks to xs (ties receive the average of
// the ranks they span), as used by Spearman correlation.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// average rank for the tie group [i, j]
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
