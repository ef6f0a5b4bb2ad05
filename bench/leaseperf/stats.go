package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile p (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of percentile p among n values. The
// small subtraction keeps a product that is a whole number in exact
// arithmetic, like 99.9% of 10 000, from rounding up to the next rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median sorts a copy of v and returns its nearest-rank median, or 0
// for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// relIQR is the distance between the first and third quartile of v as a
// share of its median: the spread `leaseperf -compare` holds against a
// metric's bound. Fewer than four values, or a zero median, give 0.
func relIQR(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (percentile(s, 75) - percentile(s, 25)) / math.Abs(med)
}

// tailPercentiles are the companions a median may be printed with,
// ascending.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// highestTail picks the highest percentile of n samples that still has
// at least ten samples beyond it, or 0 when even p90 does not.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// digest is a latency sample reduced to what is printed: the median,
// the highest percentile the sample size supports, p99 for the
// per-layer companions, and the relative IQR of the per-slice medians.
type digest struct {
	N      int
	P50    float64
	P99    float64
	TailP  float64 // which percentile Tail is; 0 = none supported
	Tail   float64
	Spread float64
}

// digestOf reduces samples (in µs) whose slice indices are in slices
// (same length; nil for no per-slice spread).
func digestOf(us []float64, slices []int) digest {
	d := digest{N: len(us)}
	if d.N == 0 {
		return d
	}
	sorted := append([]float64(nil), us...)
	sort.Float64s(sorted)
	d.P50 = percentile(sorted, 50)
	d.P99 = percentile(sorted, 99)
	if d.TailP = highestTail(d.N); d.TailP > 0 {
		d.Tail = percentile(sorted, d.TailP)
	}
	if slices != nil {
		by := map[int][]float64{}
		for i, s := range slices {
			by[s] = append(by[s], us[i])
		}
		var meds []float64
		for _, v := range by {
			meds = append(meds, median(v))
		}
		d.Spread = relIQR(meds)
	}
	return d
}
