package main

import (
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is set by a handful of
// outliers and does not repeat from run to run.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and whether it is supported, i.e. at least minTail samples lie strictly
// beyond its rank. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	slices.Sort(samples)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return samples[k], n-(k+1) >= minTail
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
