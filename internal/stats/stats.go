// Package stats provides the statistical summaries used by the paper's
// evaluation: arithmetic means, 95% confidence intervals on relative
// differences (Fig. 8), win/loss classification against a baseline
// (Fig. 9), S-curve orderings (Figs. 3 and 11), and ASCII heat-map
// rendering for the cache-efficiency figures (Figs. 1 and 5).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
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

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the mean and the half-width of its 95% confidence
// interval under the normal approximation (z = 1.96).
func CI95(xs []float64) (mean, halfWidth float64) {
	m := Mean(xs)
	if len(xs) < 2 {
		return m, 0
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return m, 1.96 * se
}

// RelativeDiffs returns (x[i]-base[i])/base[i] for every pair with a
// nonzero baseline; pairs whose baseline is (near) zero are skipped, as
// a relative difference is undefined there.
func RelativeDiffs(xs, base []float64) []float64 {
	n := len(xs)
	if len(base) < n {
		n = len(base)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if math.Abs(base[i]) < 1e-12 {
			continue
		}
		out = append(out, (xs[i]-base[i])/base[i])
	}
	return out
}

// WinLoss classifies each measurement against its baseline.
type WinLoss struct {
	Better  int // policy improved on the baseline by more than epsilon
	Similar int // within epsilon of the baseline (or both zero)
	Worse   int // policy degraded the baseline by more than epsilon
}

// Classify counts, per workload, whether xs improved on base by more
// than eps (relative), stayed within eps, or degraded by more than eps.
// A zero baseline with a zero measurement counts as similar; a zero
// baseline with a nonzero measurement counts as worse.
func Classify(xs, base []float64, eps float64) WinLoss {
	var w WinLoss
	n := len(xs)
	if len(base) < n {
		n = len(base)
	}
	for i := 0; i < n; i++ {
		b := base[i]
		switch {
		case math.Abs(b) < 1e-12:
			if math.Abs(xs[i]) < 1e-12 {
				w.Similar++
			} else {
				w.Worse++
			}
		case xs[i] < b*(1-eps):
			w.Better++
		case xs[i] > b*(1+eps):
			w.Worse++
		default:
			w.Similar++
		}
	}
	return w
}

// SCurveOrder returns the index permutation that sorts base ascending —
// the x-axis ordering of the paper's S-curve figures (benchmarks sorted
// by their LRU MPKI).
func SCurveOrder(base []float64) []int {
	idx := make([]int, len(base))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return base[idx[a]] < base[idx[b]] })
	return idx
}

// Permute returns xs reordered by idx.
func Permute(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// FilterAtLeast returns the values of xs at indices where base[i] >= min
// — the paper's ">= 1 MPKI under LRU" subset selection.
func FilterAtLeast(xs, base []float64, min float64) []float64 {
	n := len(xs)
	if len(base) < n {
		n = len(base)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if base[i] >= min {
			out = append(out, xs[i])
		}
	}
	return out
}

// Improvement formats the paper's "X% over Y" improvement: the relative
// reduction of x versus base, in percent (positive = x is lower/better).
func Improvement(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - x) / base * 100
}
