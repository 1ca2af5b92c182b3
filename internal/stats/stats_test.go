package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianUint64(t *testing.T) {
	if MedianUint64(nil) != 0 {
		t.Error("empty != 0")
	}
	if MedianUint64([]uint64{5, 1, 9}) != 5 {
		t.Error("odd median wrong")
	}
	// Even length takes the lower middle.
	if MedianUint64([]uint64{1, 2, 3, 4}) != 2 {
		t.Error("even median wrong")
	}
}

func TestMedianUint64WithinRange(t *testing.T) {
	f := func(xs []uint64) bool {
		if len(xs) == 0 {
			return MedianUint64(xs) == 0
		}
		m := MedianUint64(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 1, 2, 5, 5, 5} {
		h.Add(v)
	}
	if h.Count(5) != 3 || h.Count(9) != 0 {
		t.Fatalf("counts wrong: c5=%d", h.Count(5))
	}
	if !almost(h.Fraction(1), 2.0/6) {
		t.Errorf("fraction = %v", h.Fraction(1))
	}
	if got := h.Keys(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("keys = %v", got)
	}
}
