package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. Every reported percentile — medians of repetitions included — uses
// this one definition, so a value is always a sample that was measured.
// It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The epsilon keeps float rounding from pushing an exact rank (99.9% of
// 10000) up by one.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailCandidates are the tail percentiles a distribution may be
// summarized by, highest first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples above its rank, so a reported tail is never
// one or two outliers; with fewer than about 40 samples it falls back to
// the median.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
