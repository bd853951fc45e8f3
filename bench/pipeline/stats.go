// Package pipeline is the repository's benchmark: four closed-loop
// workloads over the library's public entry points, timed from outside.
// See ../README.md for what each workload stresses and how the metrics
// interact.
package pipeline

import (
	"math"
	"sort"
)

// Summary is the noise record kept for every timing: the median with
// its extremes, inter-quartile range and sample count. N stays below 20
// everywhere, so no percentile above the median is claimed.
type Summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
	N      int     `json:"n"`
}

// Summarize computes the Summary of samples (all zero for no samples).
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := sorted(samples)
	q1, _, q3 := quartilesSorted(s)
	return Summary{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], IQR: q3 - q1, N: len(s)}
}

// Median returns the median of samples, 0 when there are none.
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return medianSorted(sorted(samples))
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so
// a spread computed here matches the one the benchmark's driver
// computes. Fewer than two samples have no spread: all three cut points
// are the sample itself.
func Quartiles(samples []float64) (q1, q2, q3 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	return quartilesSorted(sorted(samples))
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartilesSorted(s []float64) (q1, q2, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the inter-quartile range as a share of the median, the
// spread the regression rule compares with a metric's bound.
func relSpread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	q1, q2, q3 := Quartiles(samples)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
