package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 10: 1, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g of 1..10 = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{50: 0, 100: 90, 999: 90, 1000: 99, 10_000: 99.9, 100_000: 99.99} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestRelIQR(t *testing.T) {
	// Quartiles of 1..8 by nearest rank are 2 and 6, the median 4.
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8}); math.Abs(got-1) > 1e-9 {
		t.Errorf("relIQR = %g, want 1", got)
	}
	if got := relIQR([]float64{5, 5, 5}); got != 0 {
		t.Errorf("relIQR of three values = %g, want 0", got)
	}
}

func TestDigestSpreadIsOverSliceMedians(t *testing.T) {
	// Eight slices whose medians are 10 four times and 20 four times.
	var us []float64
	var slices []int
	for s, m := range []float64{10, 10, 10, 10, 20, 20, 20, 20} {
		for _, d := range []float64{-1, 0, 1} {
			us, slices = append(us, m+d), append(slices, s)
		}
	}
	d := digestOf(us, slices)
	if d.N != 24 || d.P50 != 11 {
		t.Errorf("digest n=%d p50=%g, want 24 and 11", d.N, d.P50)
	}
	if d.Spread != 1 { // quartiles 10 and 20 over median 10
		t.Errorf("spread = %g, want 1", d.Spread)
	}
	if d.TailP != 0 {
		t.Errorf("24 samples support no tail percentile, got p%g", d.TailP)
	}
}
