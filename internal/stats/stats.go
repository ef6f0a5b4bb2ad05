// Package stats provides the measurement primitives used by the lease
// simulator, the networked server, and the benchmark harness: atomic
// counters, duration accumulators with mean/min/max, and fixed-bucket
// histograms.
//
// The paper's evaluation (§3) is expressed in terms of message counts at
// the server (formula 1) and per-operation added delay (formula 2); the
// types here accumulate exactly those quantities so that the trace-driven
// simulation and the analytic model can be compared number for number.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta. Negative deltas are rejected so
// that a Counter is always a count of events.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("stats: negative delta on Counter")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// DurationStat accumulates a stream of durations, tracking count, sum,
// minimum and maximum. It is safe for concurrent use. The zero value is
// ready to use.
type DurationStat struct {
	mu    sync.Mutex
	count int64
	sum   time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe records one duration.
func (d *DurationStat) Observe(v time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
}

// Count reports the number of observations.
func (d *DurationStat) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Sum reports the total of all observations.
func (d *DurationStat) Sum() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sum
}

// Mean reports the average observation, or zero if none were recorded.
func (d *DurationStat) Mean() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	return d.sum / time.Duration(d.count)
}

// Min reports the smallest observation, or zero if none were recorded.
func (d *DurationStat) Min() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.min
}

// Max reports the largest observation, or zero if none were recorded.
func (d *DurationStat) Max() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Reset discards all observations.
func (d *DurationStat) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count, d.sum, d.min, d.max = 0, 0, 0, 0
}

// Histogram accumulates observations into fixed buckets defined by their
// upper bounds, plus an overflow bucket. It is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds
	counts []int64   // len(bounds)+1, last is overflow
	total  int64
	sum    float64
}

// NewHistogram returns a histogram with the given bucket upper bounds,
// which must be strictly increasing and non-empty.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram requires at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean reports the average observation, or zero if none were recorded.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile reports an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// observations: the bound of the first bucket at which the cumulative
// count reaches q·total. It returns +Inf if the quantile falls in the
// overflow bucket, and zero if nothing was recorded.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == len(h.bounds) {
				return math.Inf(1)
			}
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// HistogramSnapshot is a point-in-time copy of a Histogram, decorated
// with the quantiles an operator actually reads (p50/p95/p99). Counts
// are per-bucket (not cumulative); the final count is the overflow
// bucket.
type HistogramSnapshot struct {
	Count         int64
	Sum           float64
	Mean          float64
	P50, P95, P99 float64
	Bounds        []float64
	Counts        []int64
}

// Snapshot captures the histogram's state and quantile digest in one
// consistent read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:  h.total,
		Sum:    h.sum,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
	}
	if h.total > 0 {
		s.Mean = h.sum / float64(h.total)
	}
	s.P50 = h.quantileLocked(0.50)
	s.P95 = h.quantileLocked(0.95)
	s.P99 = h.quantileLocked(0.99)
	return s
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == len(h.bounds) {
				return math.Inf(1)
			}
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// LatencyBounds returns the default latency bucket upper bounds in
// seconds: a roughly 1-2.5-5 exponential ladder from 50µs to 10s, wide
// enough for a cached in-process hit and a write deferred behind a
// multi-second lease term alike.
func LatencyBounds() []float64 {
	return []float64{
		0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// NewLatencyHistogram returns a histogram over LatencyBounds, for
// recording operation latencies in seconds.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(LatencyBounds()...)
}

// Buckets returns copies of the bucket bounds and counts (the final count
// is the overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append(bounds, h.bounds...)
	counts = append(counts, h.counts...)
	return bounds, counts
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	bounds, counts := h.Buckets()
	var b strings.Builder
	fmt.Fprintf(&b, "hist n=%d mean=%.4g [", h.Count(), h.Mean())
	for i, c := range counts {
		if i > 0 {
			b.WriteString(" ")
		}
		if i < len(bounds) {
			fmt.Fprintf(&b, "≤%.4g:%d", bounds[i], c)
		} else {
			fmt.Fprintf(&b, ">:%d", c)
		}
	}
	b.WriteString("]")
	return b.String()
}

// Registry is a named collection of counters and duration statistics, so
// that a component can expose all of its metrics for snapshotting.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	durations map[string]*DurationStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		durations: make(map[string]*DurationStat),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Duration returns the duration statistic with the given name, creating
// it if needed.
func (r *Registry) Duration(name string) *DurationStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.durations[name]
	if !ok {
		d = &DurationStat{}
		r.durations[name] = d
	}
	return d
}

// Snapshot returns the current value of every counter and the mean of
// every duration statistic, keyed by name. Duration means appear under
// "<name>.mean" in nanoseconds and counts under "<name>.count".
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+2*len(r.durations))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, d := range r.durations {
		out[name+".count"] = d.Count()
		out[name+".mean"] = int64(d.Mean())
	}
	return out
}

// Names returns the sorted names of all registered counters.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
