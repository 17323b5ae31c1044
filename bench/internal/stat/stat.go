// Package stat holds the benchmark's own arithmetic: percentiles under the
// ten-beyond rule, medians, and the interquartile spread the self-check and
// the driver both use to decide whether a metric is steady.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer is one outlier's latency, not the
// distribution's.
const MinBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and whether at least MinBeyond samples lie beyond it.
// An empty sample yields 0, false. xs is not modified.
func Percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted)-rank >= MinBeyond
}

// Median returns the middle of xs (mean of the two middle values for an even
// count), 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// Mean returns the arithmetic mean of xs, 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, so the self-check
// computes the same spread the driver does. Fewer than two samples yield
// the single value (or 0) for both.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		n := len(sorted)
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// steadiness measure a metric's bound is compared against. A zero median
// yields 0.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs((q3 - q1) / med)
}
