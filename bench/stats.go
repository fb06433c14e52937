package main

import (
	"math"
	"sort"
)

// nearestRank returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample with at least a fraction p of the samples at or below it.
// It returns 0 for no samples.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}

func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (an idle layer reports 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
