package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample: the smallest value with at least p·n values at
// or below it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supported reports whether a sample of n values carries the p-quantile
// under the ten-samples-beyond rule: a percentile is only reported when at
// least ten samples lie beyond it, so p99 needs n ≥ 1000.
func supported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

// median returns the nearest-rank median of an unsorted sample (0 for an
// empty one). The argument is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the first quartile, median and third quartile of a
// sample, interpolated exactly as Python's statistics.quantiles(xs, n=4)
// (the exclusive method) does — the rule the benchmark contract measures
// run-to-run spread with. Fewer than two values yield the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k·(n+1)/4 on the 1-based order statistics, clamped to
		// the sample like the Python implementation (which extrapolates
		// from the outermost pair for tiny samples).
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of a sample as a share of its median,
// the steadiness figure the contract bounds (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
