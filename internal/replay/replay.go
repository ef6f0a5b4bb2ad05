// Package replay drives a workload trace (internal/trace) against a
// live networked lease server (internal/server) over real TCP — the
// bridge between the deterministic simulator and the deployment. The
// same traces that regenerate the paper's figures in simulation can be
// replayed here to sanity-check that the real stack exhibits the same
// behaviour: cache hit rates rising with the term, writes deferred
// behind leases, zero staleness.
//
// Traces are replayed under time compression: a Speedup of 60 replays
// an hour-long trace in a minute. Message timing then differs from the
// simulator's model (real TCP on a real host), so the comparable
// quantities are counts and ratios, not absolute delays.
package replay

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"leases/internal/client"
	"leases/internal/obs/tracing"
	"leases/internal/stats"
	"leases/internal/trace"
	"leases/internal/vfs"
)

// Config parameterizes a replay.
type Config struct {
	// Addr is the server address.
	Addr string
	// Trace is the workload. Required. File indices map to paths
	// "/f<N>" which must exist on the server (Prepare creates them).
	Trace *trace.Trace
	// Speedup divides all trace gaps; 0 means 60.
	Speedup float64
	// Allowance is ε for the client caches.
	Allowance time.Duration
	// MaxOps bounds the number of events replayed (0 = all), for quick
	// smoke runs.
	MaxOps int
	// Depth is the per-client pipeline depth: how many operations one
	// client keeps in flight through the async API (StartRead /
	// StartWrite) before harvesting the oldest. 0 or 1 replays in the
	// classic blocking lock-step. At depth > 1 the client's write
	// coalescer batches the outstanding requests into few syscalls and
	// the per-op latencies become issue-to-harvest times — they include
	// time a completed reply waits in the window, so throughput and hit
	// ratios are the meaningful outputs there, not tail latencies.
	Depth int
	// OpenLoop, when set, ignores the trace's timestamps: each client
	// issues its next operation as soon as its pipeline window has room,
	// measuring the sustainable throughput of the serving path rather
	// than replaying the trace's arrival process. Speedup is ignored.
	OpenLoop bool
	// Tracer, when non-nil, roots a client-side span on every sampled
	// operation; the context rides the wire so server-side /traces
	// correlates.
	Tracer *tracing.Tracer
}

// Result reports replay measurements.
type Result struct {
	Ops, Reads, Writes int64
	// ReadHits counts reads served from cache under a valid lease.
	ReadHits int64
	// Errors counts failed operations.
	Errors int64
	// ReadLatency and WriteLatency summarize operation times.
	ReadLatency, WriteLatency LatencySummary
	// CachedRead and UncachedRead split ReadLatency by op class: reads
	// served from the local cache under a valid lease versus reads that
	// cost a server round-trip — the two regimes whose gap is the whole
	// point of leasing (§3's consistency-induced delay is exactly the
	// uncached excess).
	CachedRead, UncachedRead LatencySummary
	// WallTime is how long the replay took.
	WallTime time.Duration
	// Stalls counts open-loop issue attempts that found the pipeline
	// window full and had to harvest first — the client-side
	// backpressure signal (the serving path, not the arrival process,
	// was the bottleneck at that moment).
	Stalls int64
}

// LatencySummary is a compact latency digest with exact quantiles
// (nearest-rank over every observation).
type LatencySummary struct {
	Count         int64
	Mean, Max     time.Duration
	P50, P95, P99 time.Duration
}

func summarize(s *stats.DurationSample) LatencySummary {
	return LatencySummary{
		Count: s.Count(), Mean: s.Mean(), Max: s.Max(),
		P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
	}
}

// PathForFile maps a trace file index to its server path.
func PathForFile(f uint32) string { return fmt.Sprintf("/f%d", f) }

// Prepare creates the trace's files on the server through a temporary
// client connection. Call once before Run against a fresh server.
func Prepare(addr string, tr *trace.Trace) error {
	c, err := client.Dial(addr, client.Config{ID: "replay-prepare"})
	if err != nil {
		return err
	}
	defer c.Close()
	for f := 0; f < tr.Files; f++ {
		if _, err := c.Create(PathForFile(uint32(f)), vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			return fmt.Errorf("creating %s: %w", PathForFile(uint32(f)), err)
		}
		if err := c.Write(PathForFile(uint32(f)), []byte("seed")); err != nil {
			return fmt.Errorf("seeding %s: %w", PathForFile(uint32(f)), err)
		}
	}
	return nil
}

// Run replays the trace. Each trace client gets its own connection and
// goroutine; events fire at their compressed offsets.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("replay: nil trace")
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 60
	}
	if cfg.Speedup <= 0 {
		return nil, fmt.Errorf("replay: non-positive speedup")
	}

	// Partition events per client, preserving order.
	perClient := make([][]trace.Event, cfg.Trace.Clients)
	total := 0
	for _, e := range cfg.Trace.Events {
		if cfg.MaxOps > 0 && total >= cfg.MaxOps {
			break
		}
		perClient[e.Client] = append(perClient[e.Client], e)
		total++
	}

	caches := make([]*client.Cache, cfg.Trace.Clients)
	for i := range caches {
		c, err := client.Dial(cfg.Addr, client.Config{
			ID:        fmt.Sprintf("replay-c%d", i),
			Allowance: cfg.Allowance,
			Tracer:    cfg.Tracer,
		})
		if err != nil {
			for _, prev := range caches[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("replay: dialing client %d: %w", i, err)
		}
		caches[i] = c
	}
	defer func() {
		for _, c := range caches {
			c.Close()
		}
	}()

	var (
		errs        stats.Counter
		readLat     stats.DurationSample
		writeLat    stats.DurationSample
		cachedLat   stats.DurationSample
		uncachedLat stats.DurationSample
		reads       stats.Counter
		writes      stats.Counter
		stalls      stats.Counter
		readPayload = []byte("replayed write")
	)
	depth := cfg.Depth
	if depth < 1 {
		depth = 1
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, events := range perClient {
		if len(events) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx int, events []trace.Event) {
			defer wg.Done()
			c := caches[idx]
			// window holds this client's in-flight operations, oldest
			// first; harvest blocks on the oldest future.
			window := make([]inflightOp, 0, depth)
			harvest := func() {
				op := window[0]
				window = window[1:]
				var err error
				// Latency is measured after Wait returns so it includes
				// the time blocked on the reply: at depth 1 this is the
				// full issue-to-completion round trip, at depth > 1 the
				// issue-to-harvest time (see Config.Depth).
				switch {
				case op.read != nil:
					_, err = op.read.Wait()
					d := time.Since(op.start)
					reads.Inc()
					readLat.Observe(d)
					// The future knows directly whether it was served
					// from cache — no hit-counter delta needed, which
					// also stays exact when several reads are in flight.
					if op.read.Hit() {
						cachedLat.Observe(d)
					} else {
						uncachedLat.Observe(d)
					}
				case op.write != nil:
					err = op.write.Wait()
					writes.Inc()
					writeLat.Observe(time.Since(op.start))
				}
				if err != nil {
					errs.Inc()
				}
			}
			for _, e := range events {
				// Make room before pacing, so a blocking harvest never
				// counts the inter-arrival sleep as operation latency.
				if len(window) >= depth {
					if cfg.OpenLoop {
						stalls.Inc()
					}
					harvest()
				}
				if !cfg.OpenLoop {
					target := start.Add(time.Duration(float64(e.At) / cfg.Speedup))
					if d := time.Until(target); d > 0 {
						time.Sleep(d)
					}
				}
				path := PathForFile(e.File)
				op := inflightOp{start: time.Now()}
				switch e.Op {
				case trace.OpRead:
					op.read = c.StartRead(path)
				case trace.OpWrite:
					op.write = c.StartWrite(path, readPayload)
				default:
					continue
				}
				window = append(window, op)
			}
			for len(window) > 0 {
				harvest()
			}
		}(i, events)
	}
	wg.Wait()

	var hits int64
	for _, c := range caches {
		m := c.Metrics()
		hits += m.ReadHits
	}
	return &Result{
		Ops:          reads.Value() + writes.Value(),
		Reads:        reads.Value(),
		Writes:       writes.Value(),
		ReadHits:     hits,
		Errors:       errs.Value(),
		ReadLatency:  summarize(&readLat),
		WriteLatency: summarize(&writeLat),
		CachedRead:   summarize(&cachedLat),
		UncachedRead: summarize(&uncachedLat),
		WallTime:     time.Since(start),
		Stalls:       stalls.Value(),
	}, nil
}

// inflightOp is one issued-but-unharvested operation in a client's
// pipeline window: exactly one of read/write is set.
type inflightOp struct {
	start time.Time
	read  *client.ReadCall
	write *client.WriteCall
}

// SortEventsForDisplay orders a copy of events by time then client, for
// debugging dumps.
func SortEventsForDisplay(events []trace.Event) []trace.Event {
	out := make([]trace.Event, len(events))
	copy(out, events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Client < out[j].Client
	})
	return out
}
