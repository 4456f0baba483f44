package main

import (
	"math"
	"sort"
)

// bestQuarter is the benchmark's estimator: the mean of the best ⌈S/4⌉ of
// the S slice values of one phase — the lowest when lower is better, the
// highest otherwise. Interference on a shared host only ever slows a slice
// down, so the best slices are the ones closest to the undisturbed cost;
// averaging a quarter of them (not taking the single best) keeps the value
// from riding on one lucky slice.
func bestQuarter(values []float64, lowerIsBetter bool) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if !lowerIsBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	n := (len(s) + 3) / 4
	var sum float64
	for _, v := range s[:n] {
		sum += v
	}
	return sum / float64(n)
}

// quantile returns the q-quantile of values by linear interpolation between
// the bracketing order statistics (h = q·(n−1)). values is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }
