package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-quantile of xs by the nearest-rank rule: the
// smallest value with at least p·n values at or below it. It is the one
// quantile rule of the benchmark — lower quartile (p = 0.25), median
// (0.5) and latency percentiles all come from it — and it always returns
// a value that was measured, never an interpolation.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func lowerQuartile(xs []float64) float64 { return nearestRank(xs, 0.25) }
func median(xs []float64) float64        { return nearestRank(xs, 0.50) }

// samplesBeyond counts the samples strictly above the nearest-rank
// p-quantile's position: a percentile is reportable only when at least
// ten samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p * float64(n)))
	if i < 1 {
		i = 1
	}
	return n - i
}

// percentileSupported reports whether n samples support the p-quantile
// under the "at least ten samples beyond" rule.
func percentileSupported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// iqrOverMedian is the driver's steadiness measure: the distance between
// the first and third quartile, as Python's statistics.quantiles(n=4)
// (exclusive method) computes them, over the median.
func iqrOverMedian(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
