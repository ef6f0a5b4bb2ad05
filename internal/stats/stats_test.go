package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero Counter has value %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("got %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after Reset got %d, want 0", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("got %d, want 16000", c.Value())
	}
}

func TestDurationStat(t *testing.T) {
	var d DurationStat
	if d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Count() != 0 {
		t.Fatal("zero DurationStat not empty")
	}
	d.Observe(2 * time.Second)
	d.Observe(4 * time.Second)
	d.Observe(6 * time.Second)
	if d.Count() != 3 {
		t.Fatalf("Count = %d, want 3", d.Count())
	}
	if d.Mean() != 4*time.Second {
		t.Fatalf("Mean = %v, want 4s", d.Mean())
	}
	if d.Min() != 2*time.Second || d.Max() != 6*time.Second {
		t.Fatalf("Min/Max = %v/%v, want 2s/6s", d.Min(), d.Max())
	}
	if d.Sum() != 12*time.Second {
		t.Fatalf("Sum = %v, want 12s", d.Sum())
	}
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestDurationStatSingleObservation(t *testing.T) {
	var d DurationStat
	d.Observe(5 * time.Millisecond)
	if d.Min() != 5*time.Millisecond || d.Max() != 5*time.Millisecond {
		t.Fatalf("single observation Min/Max = %v/%v", d.Min(), d.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1.5, 1.9, 3, 10} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("Buckets() lengths %d/%d, want 3/4", len(bounds), len(counts))
	}
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d count %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Mean(); math.Abs(got-3.38) > 1e-9 {
		t.Fatalf("Mean = %v, want 3.38", got)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(1) // exactly on a bound: belongs to the ≤1 bucket
	_, counts := h.Buckets()
	if counts[0] != 1 {
		t.Fatalf("value on bound landed in %v, want first bucket", counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 40; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1", q)
	}
	if q := h.Quantile(0.9); q != 4 {
		t.Fatalf("p90 = %v, want 4", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99 = %v, want +Inf (overflow)", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(1)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(5)
	s := h.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestRegistryReusesMetrics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reads")
	b := r.Counter("reads")
	if a != b {
		t.Fatal("Counter with same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counters with same name not shared")
	}
	d1 := r.Duration("latency")
	d2 := r.Duration("latency")
	if d1 != d2 {
		t.Fatal("Duration with same name returned distinct stats")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(7)
	r.Duration("rt").Observe(10 * time.Millisecond)
	r.Duration("rt").Observe(20 * time.Millisecond)
	snap := r.Snapshot()
	if snap["msgs"] != 7 {
		t.Fatalf("snapshot msgs = %d, want 7", snap["msgs"])
	}
	if snap["rt.count"] != 2 {
		t.Fatalf("snapshot rt.count = %d, want 2", snap["rt.count"])
	}
	if snap["rt.mean"] != int64(15*time.Millisecond) {
		t.Fatalf("snapshot rt.mean = %d, want 15ms", snap["rt.mean"])
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta")
	r.Counter("alpha")
	names := r.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names() = %v", names)
	}
}

// Property: histogram total always equals the number of Observe calls,
// and the sum of bucket counts equals the total.
func TestHistogramCountProperty(t *testing.T) {
	f := func(values []float64) bool {
		h := NewHistogram(0.25, 0.5, 0.75)
		for _, v := range values {
			if math.IsNaN(v) {
				continue
			}
			h.Observe(v)
		}
		_, counts := h.Buckets()
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum == h.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DurationStat mean lies between min and max.
func TestDurationStatMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var d DurationStat
		for _, v := range raw {
			d.Observe(time.Duration(v))
		}
		m := d.Mean()
		return m >= d.Min() && m <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Observe(1.5)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 2 {
			t.Errorf("Quantile(%v) = %v, want upper bound 2 of the sample's bucket", q, got)
		}
	}
}

func TestHistogramQuantileAllEqual(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("Quantile(%v) = %v, want 4 for identical samples", q, got)
		}
	}
}

func TestHistogramSumAndSnapshot(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(10)
	if got := h.Sum(); math.Abs(got-12) > 1e-9 {
		t.Errorf("Sum() = %v, want 12", got)
	}
	s := h.Snapshot()
	if s.Count != 3 || math.Abs(s.Sum-12) > 1e-9 {
		t.Errorf("snapshot count/sum = %d/%v", s.Count, s.Sum)
	}
	if s.P50 != 2 {
		t.Errorf("snapshot P50 = %v, want 2", s.P50)
	}
	if !math.IsInf(s.P99, 1) {
		t.Errorf("snapshot P99 = %v, want +Inf (overflow bucket)", s.P99)
	}
	if len(s.Bounds) != 2 || len(s.Counts) != 3 {
		t.Errorf("snapshot shape bounds=%d counts=%d", len(s.Bounds), len(s.Counts))
	}
	// The snapshot is a copy: further observations must not leak in.
	h.Observe(0.5)
	if s.Count != 3 {
		t.Errorf("snapshot mutated by later Observe")
	}
}

func TestLatencyBoundsSortedPositive(t *testing.T) {
	b := LatencyBounds()
	if len(b) == 0 || b[0] <= 0 {
		t.Fatalf("bad first bound: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, b)
		}
	}
	NewLatencyHistogram().Observe(0.001) // must not panic
}
