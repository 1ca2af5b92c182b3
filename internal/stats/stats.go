// Package stats provides the small statistical toolkit used by the TopoShot
// reproduction: medians and histograms.
package stats

import "sort"

// MedianUint64 returns the median of xs without modifying the input.
// For even-length input it returns the lower of the two middle elements,
// matching the integer gas-price estimation in the paper's §5.2.1.
func MedianUint64(xs []uint64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// Histogram counts occurrences of integer-valued observations.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Fraction returns the share of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Keys returns the observed values in ascending order.
func (h *Histogram) Keys() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
