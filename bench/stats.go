package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two when even);
// NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is one or two outliers, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0<p<100) of xs, and
// refuses when fewer than minTail samples lie beyond it — the rule that
// makes p90 the highest percentile the benchmark's step counts support.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, minTail)
	}
	return s[rank-1], nil
}

// quartiles returns Q1 and Q3 by the exclusive method Python's
// statistics.quantiles(xs, n=4) uses, so spreads printed here can be checked
// against the driver's arithmetic. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*(len(s)+1) - 4*j // past 4 at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure the bounds are judged against. Fewer than two
// samples have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}
