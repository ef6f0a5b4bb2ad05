// Package obs is the live observability layer of the lease system:
// structured protocol event tracing, per-operation latency histograms,
// and the snapshot/exposition plumbing behind the HTTP admin plane.
//
// The paper's whole evaluation (§3) is about measuring the protocol —
// server message load (formula 1) and consistency-induced delay
// (formula 2). internal/trace and internal/tracesim measure those
// quantities offline, in simulation; obs is the online analogue for the
// real TCP deployment: every grant, approval callback, deferral and
// expiry-release that a running server performs is recorded as a
// structured event, and every request's latency lands in a histogram,
// so formula-1 message counts and formula-2 delay distributions can be
// read off a production server while traffic flows.
//
// Cost model: an *Observer is optional everywhere it is threaded
// (server, client, cmd tools). A nil Observer is the disabled state —
// every method nil-checks its receiver and returns immediately, so the
// instrumented hot paths cost one predictable branch and zero
// allocations when observability is off (asserted by
// TestDisabledObserverAllocFree). Enabled, the ring buffer takes one
// per-slot mutex, counters are atomic, and histograms take one short
// mutex per observation; nothing global serializes two requests.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"time"

	"leases/internal/stats"
	"leases/internal/vfs"
)

// EventType classifies a protocol event.
type EventType uint8

// The protocol event taxonomy. Together the types cover every message
// class of the paper's formula 1 (grants, extensions, approval
// round-trips) and every source of formula-2 delay (deferral, expiry
// release, timeout).
const (
	// EvGrant: a lease was granted on first contact (read, lookup,
	// readdir). Term zero means the grant was refused — a write was
	// pending (anti-starvation, §2 fn. 1) or the policy said no caching.
	EvGrant EventType = iota
	// EvExtend: a lease was renewed, in a batch extension request
	// (§3.1) or on a read or write that carried it. Term zero means the
	// renewal was refused.
	EvExtend
	// EvApproveRequest: the server pushed an approval callback to a
	// leaseholder blocking a write.
	EvApproveRequest
	// EvApprove: a leaseholder approved a write, having invalidated its
	// cached copy.
	EvApprove
	// EvExpire: a deferred write was released because its blocking
	// leases expired — the fault-tolerance path (§2).
	EvExpire
	// EvWriteDefer: a write was queued behind conflicting leases (or a
	// blocked window) rather than applied immediately.
	EvWriteDefer
	// EvWriteApply: a write obtained clearance and was applied; Wait is
	// how long clearance took.
	EvWriteApply
	// EvWriteTimeout: a write exceeded the server's deferral bound and
	// was failed back to the writer.
	EvWriteTimeout
	// EvEviction: a cached copy was invalidated — at the server, a
	// holder's lease record dropped by its approval; at the client, a
	// datum dropped from the local cache by an approval push.
	EvEviction
	// EvReconnect: a client session lost its connection and
	// re-established it (re-hello done, cached leases dropped for
	// revalidation). Client identifies the cache; Wait is how long the
	// session was down.
	EvReconnect
	// EvFaultInject: the fault-injection layer (internal/faultnet)
	// applied a scripted or probabilistic fault — a drop, sever,
	// partition, heal or schedule action. Client carries the fault
	// label.
	EvFaultInject
	// EvQueueFull: a connection's pending flush buffer hit its
	// backpressure bound and an appender stalled — the operator's
	// signal that a peer is draining slower than the system produces
	// for it. Client identifies the connection; Depth is the number of
	// frames queued at the stall.
	EvQueueFull
	// EvElected: this replica won the master-lease election
	// (internal/replica); Replica carries the replica index.
	EvElected
	// EvDemoted: this replica's master lease lapsed or was lost;
	// Replica carries the replica index.
	EvDemoted
	// EvExtendFailure: a client's background batch extension failed;
	// Depth is the consecutive-failure count.
	EvExtendFailure
	// EvBroadcastExt: the server sent one broadcast-extension round
	// covering the installed class (§4.3); Depth is how many
	// connections it reached. At the client: one broadcast was applied.
	EvBroadcastExt
	// EvClassPromote: a datum entered the installed-files class.
	EvClassPromote
	// EvClassDemote: drop-on-write — a write demoted a datum out of the
	// installed class (§4.3).
	EvClassDemote
	// EvNotOwner: a sharded server refused a path operation it does not
	// own and redirected the client to the owning group (Depth is the
	// owner's group ID).
	EvNotOwner
	// EvShardMove: this (destination) group applied an incoming
	// cross-shard rename — the file appeared here with its bytes.
	EvShardMove
	// EvShardUndo: the destination refused a cross-shard rename and this
	// (source) group restored the file it had removed.
	EvShardUndo

	numEventTypes = int(EvShardUndo) + 1
)

var eventTypeNames = [numEventTypes]string{
	"grant", "extend", "approve-request", "approve", "expire",
	"write-defer", "write-apply", "write-timeout", "eviction",
	"reconnect", "fault-inject", "queue-full", "elected", "demoted",
	"extend-failure", "broadcast-ext", "class-promote", "class-demote",
	"not-owner", "shard-move", "shard-undo",
}

// String names the event type ("grant", "write-defer", …).
func (t EventType) String() string {
	if int(t) < numEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event%d", uint8(t))
}

// MarshalJSON writes the type as its name, so JSONL sinks stay readable
// and stable across reorderings of the enum.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// Event is one structured protocol event.
type Event struct {
	// Seq is the event's global sequence number, assigned by Record.
	Seq uint64 `json:"seq"`
	// At is when the event happened. Record stamps it if zero.
	At   time.Time `json:"at"`
	Type EventType `json:"type"`
	// Client is the client the event concerns, when known.
	Client string `json:"client,omitempty"`
	// Datum is the datum the event concerns, when known.
	Datum vfs.Datum `json:"datum"`
	// Shard is the lease-manager shard that owns the datum or write.
	Shard int `json:"shard"`
	// Replica is the replica index for election events
	// (elected/demoted), which concern a whole node rather than a
	// lease-manager shard.
	Replica int `json:"replica,omitempty"`
	// Term is the granted term for grant/extend events (zero = refused).
	Term time.Duration `json:"term_ns,omitempty"`
	// WriteID identifies the pending write for approval and write events.
	WriteID uint64 `json:"write_id,omitempty"`
	// Wait is the deferral duration for write-apply/write-timeout events.
	Wait time.Duration `json:"wait_ns,omitempty"`
	// Depth is the frames queued at a queue-full stall.
	Depth int `json:"depth,omitempty"`
}

// Config parameterizes an Observer.
type Config struct {
	// RingSize bounds the event ring buffer (rounded up to a power of
	// two). Zero means 4096.
	RingSize int
	// Sink, when non-nil, receives every event as one JSON line, so a
	// recorded stream can be post-processed offline.
	Sink io.Writer
	// SlowWrite, when positive, logs any write deferred for at least
	// this long to SlowLog — the operator's view of formula-2 outliers.
	SlowWrite time.Duration
	// SlowLog receives slow-write lines; nil means log.Default().
	SlowLog *log.Logger
	// Now supplies event timestamps; nil means time.Now. Tests inject a
	// fixed clock for deterministic golden output.
	Now func() time.Time
}

// Observer records protocol events and operation latencies. The nil
// Observer is valid and disabled: every method returns immediately.
type Observer struct {
	now  func() time.Time
	ring *ring

	counts [numEventTypes]stats.Counter

	sinkMu sync.Mutex
	sink   io.Writer

	slowWrite time.Duration
	slowLog   *log.Logger

	opMu sync.RWMutex
	ops  map[string]*stats.Histogram

	// flushFrames/flushBytes record the write coalescer's batch sizes:
	// frames and bytes per flush syscall. frames-per-flush is also the
	// connection queue depth at each flush point, so the mean here is
	// the amortization factor the paper's §4 scaling argument assumes.
	flushFrames *stats.Histogram
	flushBytes  *stats.Histogram
}

// New returns an enabled Observer.
func New(cfg Config) *Observer {
	o := &Observer{
		now:         cfg.Now,
		ring:        newRing(cfg.RingSize),
		sink:        cfg.Sink,
		slowWrite:   cfg.SlowWrite,
		slowLog:     cfg.SlowLog,
		ops:         make(map[string]*stats.Histogram),
		flushFrames: stats.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256),
		flushBytes:  stats.NewHistogram(64, 256, 1024, 4096, 16384, 65536, 262144, 1<<20),
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.slowLog == nil {
		o.slowLog = log.Default()
	}
	return o
}

// Enabled reports whether the observer records anything. It is the
// nil-check instrumented code guards expensive argument preparation
// with (e.g. reading the clock before timing an operation).
func (o *Observer) Enabled() bool { return o != nil }

// Record files one event: it is stamped, sequenced, counted, appended
// to the ring, mirrored to the JSONL sink, and — for writes deferred
// beyond the slow threshold — logged. Safe for concurrent use; a nil
// receiver is a no-op.
func (o *Observer) Record(ev Event) {
	if o == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = o.now()
	}
	ev.Seq = o.ring.append(&ev)
	if int(ev.Type) < numEventTypes {
		o.counts[ev.Type].Inc()
	}
	if o.slowWrite > 0 && ev.Wait >= o.slowWrite &&
		(ev.Type == EvWriteApply || ev.Type == EvWriteTimeout) {
		o.slowLog.Printf("obs: slow write: client=%s datum=%v write=%d wait=%v (%s)",
			ev.Client, ev.Datum, ev.WriteID, ev.Wait, ev.Type)
	}
	if o.sink != nil {
		line, err := json.Marshal(ev)
		if err != nil {
			return
		}
		line = append(line, '\n')
		o.sinkMu.Lock()
		o.sink.Write(line)
		o.sinkMu.Unlock()
	}
}

// ObserveOp records one operation latency under the given name. Safe
// for concurrent use; a nil receiver is a no-op.
func (o *Observer) ObserveOp(op string, d time.Duration) {
	if o == nil {
		return
	}
	o.opMu.RLock()
	h := o.ops[op]
	o.opMu.RUnlock()
	if h == nil {
		o.opMu.Lock()
		h = o.ops[op]
		if h == nil {
			h = stats.NewLatencyHistogram()
			o.ops[op] = h
		}
		o.opMu.Unlock()
	}
	h.Observe(d.Seconds())
}

// ObserveFlush records one coalesced flush: how many frames and bytes
// went out in a single write syscall. Safe for concurrent use; a nil
// receiver is a no-op.
func (o *Observer) ObserveFlush(frames, bytes int) {
	if o == nil {
		return
	}
	o.flushFrames.Observe(float64(frames))
	o.flushBytes.Observe(float64(bytes))
}

// FlushStats returns the flush batch-size digests: frames per flush
// (the queue depth at each flush point) and bytes per flush.
func (o *Observer) FlushStats() (frames, bytes stats.HistogramSnapshot) {
	if o == nil {
		return stats.HistogramSnapshot{}, stats.HistogramSnapshot{}
	}
	return o.flushFrames.Snapshot(), o.flushBytes.Snapshot()
}

// Events returns up to n of the most recent events, oldest first. n ≤ 0
// means everything still in the ring.
func (o *Observer) Events(n int) []Event {
	if o == nil {
		return nil
	}
	return o.ring.snapshot(n)
}

// EventCount is one event type's running total.
type EventCount struct {
	Type string `json:"type"`
	N    int64  `json:"n"`
}

// EventCounts returns the running total of every event type, in
// taxonomy order (including zero counts, so exposition stays stable).
func (o *Observer) EventCounts() []EventCount {
	if o == nil {
		return nil
	}
	out := make([]EventCount, numEventTypes)
	for i := range out {
		out[i] = EventCount{Type: EventType(i).String(), N: o.counts[i].Value()}
	}
	return out
}

// OpLatency is one operation's latency digest.
type OpLatency struct {
	Op   string
	Hist stats.HistogramSnapshot
}

// OpLatencies returns a snapshot of every operation latency histogram,
// sorted by operation name.
func (o *Observer) OpLatencies() []OpLatency {
	if o == nil {
		return nil
	}
	o.opMu.RLock()
	names := make([]string, 0, len(o.ops))
	for n := range o.ops {
		names = append(names, n)
	}
	o.opMu.RUnlock()
	sort.Strings(names)
	out := make([]OpLatency, 0, len(names))
	for _, n := range names {
		o.opMu.RLock()
		h := o.ops[n]
		o.opMu.RUnlock()
		out = append(out, OpLatency{Op: n, Hist: h.Snapshot()})
	}
	return out
}
