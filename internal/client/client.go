// Package client is the caching client of the networked lease file
// server: a write-through file cache that holds leases over file
// contents and name-to-file bindings, serves repeated reads and opens
// locally while its leases are valid, approves server write callbacks
// by invalidating its copies (taking back, on the next reply, the files
// it was reading), and renews the leases it uses on the requests it
// sends anyway, or in batches.
//
// What may be cached and served is decided by internal/cache's sans-IO
// Core; this package is the TCP driver around it: connection, coalescer,
// completion table, session and renewal loop.
//
// Concurrency model: API calls may come from many goroutines. A reader
// goroutine demultiplexes frames into per-request channels and handles
// approval pushes. One mutex guards the core: lock, call it, unlock.
package client

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"leases/internal/cache"
	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/stats"
	"leases/internal/vfs"
)

// Errors.
var (
	ErrClosed = errors.New("client: connection closed")
	// ErrRemote wraps error strings returned by the server.
	ErrRemote = errors.New("client: server error")
)

// Config parameterizes a client cache.
type Config struct {
	// ID identifies this cache to the server. Required, unique per
	// cache.
	ID string
	// Clock supplies time; nil means the real clock.
	Clock clock.Clock
	// Allowance is ε, the clock-uncertainty margin deducted from every
	// lease term.
	Allowance time.Duration
	// AutoExtend, when positive, arms the background renewal loop
	// (anticipatory extension, §4): leases are extended ahead of expiry,
	// in batches, when they come within half this period of expiring;
	// the loop wakes when the next lease approaches expiry, at most
	// once per AutoExtend and at least once per AutoExtend when
	// something is due sooner. The loop is also the only code path that
	// fetches the installed-class snapshot (§4.3). Zero disables it: a
	// lease that serves hits is then renewed on the next read or write
	// the client sends, any other lapses, and the client never holds the
	// installed class, so broadcasts extend nothing for it.
	AutoExtend time.Duration
	// OnExtendFailure runs (on the renewal loop goroutine) when a
	// background extension round fails, with the error and the count of
	// consecutive failures so far — the signal a driver watches to act
	// before its leases lapse. A successful round resets the count. Nil
	// ignores failures (they are still counted in trace events).
	OnExtendFailure func(err error, consecutive int)
	// Obs, when non-nil, receives client-side trace events (cache
	// evictions forced by server approval pushes, session reconnects).
	// Nil disables them.
	Obs *obs.Observer
	// Tracer, when non-nil, head-samples RPCs into distributed traces:
	// a sampled operation roots a span here and propagates its context
	// in the request frame, so the server's dispatch, approval fan-out
	// and replication spans land under one TraceID. Nil disables tracing at
	// zero cost; cache hits never reach the wire and are never traced.
	Tracer *tracing.Tracer

	// DialTimeout bounds connection establishment and the hello
	// handshake, for the initial Dial and every reconnect attempt.
	// Zero means 5 seconds.
	DialTimeout time.Duration
	// Reconnect enables the session layer: when the connection drops,
	// the cache discards every cached lease and datum (the §5-safe
	// default — a lease is only as good as its clock window, so a
	// resumed session revalidates everything), then redials with
	// capped exponential backoff plus jitter and re-hellos under the
	// same ID. Operations issued while the session is down wait for
	// the reconnect (bounded by RetryWait) and are retried up to
	// RetryBudget times.
	Reconnect bool
	// ReconnectBackoff is the first retry delay (default 50ms);
	// ReconnectMaxBackoff caps the exponential growth (default 2s).
	ReconnectBackoff, ReconnectMaxBackoff time.Duration
	// RetryBudget is how many times one operation is retried across
	// connection failures. Zero means 2 when Reconnect is set;
	// negative disables retries. Retries only fire on connection
	// errors (ErrClosed), never on server-reported errors. A retry is a
	// fresh request, and the server does not know it was sent before:
	// an operation whose first attempt applied before its reply was
	// lost is applied again. A Write is then applied twice (the file
	// takes two versions); a Create, Remove or Rename surfaces a remote
	// error (e.g. "exists") on its retry.
	RetryBudget int
	// RetryWait bounds how long one operation waits for the session to
	// come back before failing with ErrClosed. Zero means 30s.
	RetryWait time.Duration
	// OnDisconnect runs (on the session goroutine) when the connection
	// is lost, with the read error that killed it. OnReconnect runs
	// after a successful re-hello, with the number of failed dial
	// attempts that preceded it.
	OnDisconnect func(err error)
	OnReconnect  func(attempts int)
	// Seed makes reconnect jitter deterministic; zero derives a seed
	// from the clock.
	Seed int64
	// Redial reopens the transport for the session layer. Dial fills
	// it automatically; callers using NewFromConn over a custom
	// transport supply their own to enable reconnection.
	Redial func() (net.Conn, error)
	// Replicas is the static replica set of a replicated deployment,
	// in replica-ID order — the same order every replica's -peers flag
	// uses, since a NOT_MASTER redirect carries only an index into it.
	// Used by DialReplicas; ignored by Dial.
	Replicas []string

	// cursor steers session redials across the replica set; set by
	// DialReplicas, nil for single-server clients.
	cursor *replicaCursor
}

// Cache is a connected caching client.
type Cache struct {
	cfg Config
	clk clock.Clock
	nc  net.Conn
	fr  *proto.FrameReader // buffers nc; only the demux goroutine reads it
	// co coalesces outbound frames for the current connection
	// incarnation: requests from many goroutines and approval replies
	// append to one pending buffer and go out in batched write
	// syscalls. The coalescer dies with its connection — frames queued
	// before a disconnect are never replayed onto the next connection
	// (the completion table failing the calls decides what retries) —
	// so connLost closes it and finishReconnect installs a fresh one.
	co *proto.Coalescer

	// wire counts frames and bytes per message type across connection
	// incarnations; every incarnation's reader and coalescer feed it.
	wire *proto.WireStats

	mu sync.Mutex
	// core is the cache proper: lease records with the copies they cover,
	// the reply fence and the installed-class snapshot.
	core   *cache.Core
	calls  map[uint64]chan proto.Frame
	nextID uint64
	err    error // terminal connection error
	// extendKick wakes the renewal loop out of its planned sleep — a
	// stale class snapshot or a fresh reconnect should be acted on now,
	// not at the next planned expiry.
	extendKick chan struct{}
	// Session state (Config.Reconnect). down marks the window between
	// losing the connection and completing the re-hello; ready is
	// closed while connected and replaced with an open channel while
	// down, so operations can wait for the session to come back.
	down       bool
	ready      chan struct{}
	serverBoot uint64

	stopping  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	metrics Metrics

	// latMu guards opLat, the client-observed RPC latency histograms
	// keyed by request type. Cache hits never reach call(), so these
	// measure exactly the operations that cost a server round-trip.
	latMu sync.Mutex
	opLat map[proto.MsgType]*stats.Histogram
}

// Metrics counts cache events.
type Metrics struct {
	Reads, ReadHits     int64
	Lookups, LookupHits int64
	Writes              int64
	Invalidations       int64
	// Reconnects counts completed session re-establishments.
	Reconnects int64
}

// Dial connects to a server and performs the hello handshake. The dial
// is bounded by Config.DialTimeout and the connection keeps TCP
// keepalive on, so a silently dead server surfaces as a read error
// rather than an indefinite hang.
func Dial(addr string, cfg Config) (*Cache, error) {
	dial := func() (net.Conn, error) {
		d := net.Dialer{Timeout: dialTimeout(cfg), KeepAlive: 30 * time.Second}
		return d.Dial("tcp", addr)
	}
	if cfg.Redial == nil {
		cfg.Redial = dial
	}
	nc, err := dial()
	if err != nil {
		return nil, err
	}
	return NewFromConn(nc, cfg)
}

func dialTimeout(cfg Config) time.Duration {
	if cfg.DialTimeout > 0 {
		return cfg.DialTimeout
	}
	return 5 * time.Second
}

// handshake performs the hello exchange on a fresh connection, bounded
// by the dial timeout, and returns the connection's frame reader and the
// server's boot ID. The hello is this client's ID and the ack the boot
// ID, nothing more. The hello is the one frame written outside the
// coalescer: the connection carries no other traffic yet, so there is
// nothing to batch with.
func handshake(nc net.Conn, cfg Config) (*proto.FrameReader, uint64, error) {
	nc.SetDeadline(time.Now().Add(dialTimeout(cfg)))
	defer nc.SetDeadline(time.Time{})
	var e proto.Enc
	e.Str(cfg.ID)
	if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()}); err != nil {
		return nil, 0, err
	}
	fr := proto.GetReader(nc)
	f, err := fr.Next()
	if err != nil {
		proto.PutReader(fr)
		return nil, 0, err
	}
	if f.Type == proto.TNotMaster {
		// A replica refusing the session: not an error of the transport
		// but of the target. The payload hints at the master's replica
		// index (empty or -1 when the replica doesn't know).
		master := -1
		if len(f.Payload) >= 8 {
			master = int(proto.NewDec(f.Payload).I64())
		}
		f.Recycle()
		proto.PutReader(fr)
		return nil, 0, notMasterError{master: master}
	}
	if f.Type != proto.THelloAck {
		f.Recycle()
		proto.PutReader(fr)
		return nil, 0, fmt.Errorf("client: unexpected hello response type %d", f.Type)
	}
	boot := proto.NewDec(f.Payload).U64()
	f.Recycle()
	return fr, boot, nil
}

// newCoalescer builds the outbound coalescer for one connection
// incarnation: a failed flush closes that connection (so the read loop
// notices and the session layer takes over), and — when instrumented —
// flush batch sizes and backpressure stalls land in the observer.
func (c *Cache) newCoalescer(nc net.Conn) *proto.Coalescer {
	co := proto.NewCoalescer(nc)
	co.Stats = c.wire
	co.OnError = func(error) { nc.Close() }
	if c.cfg.Obs.Enabled() {
		co.OnFlush = c.cfg.Obs.ObserveFlush
		co.OnStall = func(depth int) {
			c.cfg.Obs.Record(obs.Event{
				Type: obs.EvQueueFull, Client: c.cfg.ID, Depth: depth,
			})
		}
	}
	return co
}

// NewFromConn builds a cache over an established connection. Session
// resilience (Config.Reconnect) requires Config.Redial; Dial supplies
// it automatically.
func NewFromConn(nc net.Conn, cfg Config) (*Cache, error) {
	if cfg.ID == "" {
		nc.Close()
		return nil, fmt.Errorf("client: empty ID")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	fr, boot, err := handshake(nc, cfg)
	if err != nil {
		nc.Close()
		return nil, err
	}
	ready := make(chan struct{})
	close(ready) // connected from the start
	c := &Cache{
		cfg:        cfg,
		clk:        cfg.Clock,
		nc:         nc,
		fr:         fr,
		wire:       &proto.WireStats{},
		core:       cache.New(cfg.Allowance),
		calls:      make(map[uint64]chan proto.Frame),
		extendKick: make(chan struct{}, 1),
		stopping:   make(chan struct{}),
		opLat:      make(map[proto.MsgType]*stats.Histogram),
		ready:      ready,
		serverBoot: boot,
	}
	c.nextID = 1
	fr.Stats = c.wire
	c.co = c.newCoalescer(nc)
	c.wg.Add(1)
	go c.readLoop(nc, fr, c.co)
	if cfg.AutoExtend > 0 {
		c.wg.Add(1)
		go c.extendLoop()
	}
	return c, nil
}

// Close releases all leases, then closes the connection. It is
// idempotent.
func (c *Cache) Close() error {
	var err error
	c.closeOnce.Do(func() {
		// Best-effort release so the server frees its records
		// immediately instead of waiting for expiry.
		if held := c.HeldData(); len(held) > 0 {
			var e proto.Enc
			e.EncodeData(held)
			// One attempt, no session retries: a Close racing a dead
			// connection must not wait out a reconnect; the server
			// reclaims unreleased leases by expiry anyway.
			c.callOnce(proto.TRelease, e.Bytes())
		}
		close(c.stopping)
		c.mu.Lock()
		nc, co := c.nc, c.co
		c.mu.Unlock()
		err = nc.Close()
		co.Close()
		c.wg.Wait()
	})
	return err
}

// Abandon closes the connection abruptly without releasing leases — a
// crash, for fault-injection demos and tests. The server keeps this
// cache's lease records until their terms expire, which is exactly what
// bounds the damage: a conflicting write waits at most the remaining
// term (§2, §5).
func (c *Cache) Abandon() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.stopping)
		c.mu.Lock()
		nc, co := c.nc, c.co
		c.mu.Unlock()
		err = nc.Close()
		co.Close()
		c.wg.Wait()
	})
	return err
}

// Metrics returns a copy of the event counters.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// HeldLeases reports how many lease records the cache holds.
func (c *Cache) HeldLeases() int { return len(c.HeldData()) }

// HeldData lists the data the cache holds lease records for — the
// batch ExtendAll renews and Close releases.
func (c *Cache) HeldData() []vfs.Datum {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Held()
}

// ServerBoot reports the server incarnation ID received in the latest
// hello ack. A change across a reconnect means the server restarted and
// is running its §2 recovery window.
func (c *Cache) ServerBoot() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverBoot
}

// approvalQueue bounds the per-incarnation approval reply queue. It
// only fills when the coalescer is stalled on backpressure for the
// whole window; overflow is dropped, which the protocol tolerates
// (the server falls back to lease expiry for that write).
const approvalQueue = 1024

// readLoop demultiplexes frames from one connection until it dies; on a
// read error the session layer (connLost) decides between terminating
// the cache and reconnecting. The loop owns its connection's frame
// reader and coalescer: approval replies go out through the same
// incarnation the push arrived on, via a single long-lived sender
// goroutine fed by a bounded queue — delivery stays in push-arrival
// order and a stalled coalescer blocks one goroutine instead of
// accumulating one per push.
func (c *Cache) readLoop(nc net.Conn, fr *proto.FrameReader, co *proto.Coalescer) {
	defer c.wg.Done()
	defer proto.PutReader(fr)
	approvals := make(chan proto.ApprovalWire, approvalQueue)
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	go func() {
		defer senderWG.Done()
		for a := range approvals {
			a := a
			if !co.Append(proto.TApprove, 0, func(e *proto.Enc) { e.EncodeApprove(a) }) {
				// Coalescer dead: keep draining so the read loop's
				// close never races a blocked send.
			}
		}
	}()
	// LIFO: the channel closes after connLost has closed the coalescer,
	// so the sender's pending Append (if any) unblocks and it drains out.
	defer senderWG.Wait()
	defer close(approvals)
	for {
		f, err := fr.Next()
		if err != nil {
			c.connLost(nc, err)
			return
		}
		switch f.Type {
		case proto.TApprovalReq:
			c.handleApprovalPush(f, approvals)
			continue
		case proto.TBroadcastExt:
			c.handleBroadcastExt(f)
			continue
		}
		c.mu.Lock()
		ch, ok := c.calls[f.ReqID]
		if ok {
			delete(c.calls, f.ReqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// handleBroadcastExt applies one periodic installed-class renewal
// (§4.3): one O(1) frame extends every installed datum held under a
// valid lease — or, at a generation the held snapshot does not match,
// nothing, and the renewal loop is kicked to refetch it.
func (c *Cache) handleBroadcastExt(f proto.Frame) {
	w := proto.NewDec(f.Payload).DecodeBroadcastExt()
	f.Recycle()
	c.mu.Lock()
	current := c.core.Broadcast(w.Generation, w.Term, w.SentAt, c.clk.Now())
	c.mu.Unlock()
	if !current {
		c.kickExtend()
	}
}

// kickExtend wakes the renewal loop immediately; a no-op when the loop
// is disabled or a kick is already pending.
func (c *Cache) kickExtend() {
	select {
	case c.extendKick <- struct{}{}:
	default:
	}
}

// handleApprovalPush implements the leaseholder's side of a write
// callback: invalidate the local copy, then approve (§2), asking for the
// file back on the next reply if it was being read (cache.Core.Surrender).
// The invalidation happens here, before the approval can possibly reach
// the wire; the approval itself is handed to the incarnation's sender
// goroutine because Append may write inline when it wins flush
// leadership, and the read loop must never block on a write — over a
// synchronous pipe the peer could be mid-write itself, with nobody
// left to read. The enqueue is non-blocking for the same reason: if
// the queue is full behind a stalled coalescer the approval is
// dropped — the invalidation above already happened, so consistency
// holds, and the server's write falls back to waiting out the lease
// term (§2's fault path).
func (c *Cache) handleApprovalPush(f proto.Frame, approvals chan<- proto.ApprovalWire) {
	a := proto.NewDec(f.Payload).DecodeApproval()
	c.mu.Lock()
	a.Refill = c.core.Surrender(a.Datum, c.clk.Now())
	c.invalidatedLocked(a.Datum)
	c.mu.Unlock()
	select {
	case approvals <- a:
	default:
		if c.cfg.Obs.Enabled() {
			c.cfg.Obs.Record(obs.Event{
				Type: obs.EvQueueFull, Client: c.cfg.ID, Depth: approvalQueue,
			})
		}
	}
	f.Recycle()
}

// invalidatedLocked accounts for a datum the core just invalidated.
// Callers hold c.mu.
func (c *Cache) invalidatedLocked(d vfs.Datum) {
	c.metrics.Invalidations++
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Record(obs.Event{Type: obs.EvEviction, Client: c.cfg.ID, Datum: d})
	}
}

// observeOp records one RPC's client-observed latency.
func (c *Cache) observeOp(t proto.MsgType, d time.Duration) {
	c.latMu.Lock()
	h := c.opLat[t]
	if h == nil {
		h = stats.NewLatencyHistogram()
		c.opLat[t] = h
	}
	c.latMu.Unlock()
	h.Observe(d.Seconds())
}

// OpLatencies returns the client-observed latency digest of every RPC
// issued so far, keyed by operation name. Latencies are recorded only
// when Config.Obs is set (the same switch that enables trace events),
// so an uninstrumented cache pays nothing; cache hits are served
// without an RPC and never appear — drivers wanting hit latencies time
// their own calls.
func (c *Cache) OpLatencies() map[string]stats.HistogramSnapshot {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	out := make(map[string]stats.HistogramSnapshot, len(c.opLat))
	for t, h := range c.opLat {
		out[t.String()] = h.Snapshot()
	}
	return out
}

// call performs one request-response exchange — the blocking form of a
// startCall/Wait pair. With the session layer enabled, an exchange
// killed by a connection failure waits for the reconnect and retries
// within the per-op retry budget; server-reported errors are never
// retried.
func (c *Cache) call(t proto.MsgType, payload []byte) (proto.Frame, error) {
	return c.startCall(t, payload).Wait()
}

// callOnce performs one attempt on the current connection, with no
// session retries.
func (c *Cache) callOnce(t proto.MsgType, payload []byte) (proto.Frame, error) {
	cl := c.startCall(t, payload)
	cl.budget = 0
	return cl.Wait()
}

// begin stamps a caching request about to be sent with the fence epoch
// and the send instant; the core files the reply only if no invalidation
// crossed it.
func (c *Cache) begin() cache.Req {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Begin(now)
}

// Lookup resolves a path, using cached bindings under valid leases.
func (c *Cache) Lookup(path string) (vfs.Attr, error) {
	now := c.clk.Now()
	c.mu.Lock()
	c.metrics.Lookups++
	if attr, ok := c.core.Attr(path, now); ok {
		c.metrics.LookupHits++
		c.mu.Unlock()
		return attr, nil
	}
	c.mu.Unlock()
	return c.lookupRemote(path)
}

// openLocked resolves path from cached edges, counted in the lookup
// metrics: the resolution a read or write does in place of a Lookup
// call. Callers hold c.mu.
func (c *Cache) openLocked(path string, now time.Time) (cache.Entry, bool) {
	c.metrics.Lookups++
	ent, ok := c.core.Resolve(path, now)
	if ok {
		c.metrics.LookupHits++
	}
	return ent, ok
}

func (c *Cache) lookupRemote(path string) (vfs.Attr, error) {
	q := c.begin()
	var e proto.Enc
	e.Str(path)
	f, err := c.call(proto.TLookup, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer f.Recycle()
	d := proto.NewDec(f.Payload)
	attr := d.Attr()
	chain := d.DecodeChain()
	grants := d.DecodeGrants()
	if d.Err != nil {
		return vfs.Attr{}, d.Err
	}
	c.mu.Lock()
	c.core.File(q, cache.Reply{Path: path, Attr: attr, Chain: chain, Grants: grants}, c.clk.Now())
	c.mu.Unlock()
	return attr, nil
}

// baseOf is the path's last component.
func baseOf(p string) string { return p[strings.LastIndexByte(p, '/')+1:] }

// Read returns the file's contents, from cache when the lease is
// valid. It is the blocking form of StartRead.
func (c *Cache) Read(path string) ([]byte, error) {
	return c.StartRead(path).Wait()
}

// Write writes the file through to the server. The call blocks while
// the server gathers approvals or waits out conflicting leases. On
// success the local cache holds the new contents under the retained
// lease. It is the blocking form of StartWrite.
func (c *Cache) Write(path string, data []byte) error {
	return c.StartWrite(path, data).Wait()
}

// ReadDir lists a directory, from cache when the binding lease is valid.
func (c *Cache) ReadDir(path string) ([]vfs.DirEntry, error) {
	attr, err := c.Lookup(path)
	if err != nil {
		return nil, err
	}
	if !attr.IsDir {
		return nil, vfs.ErrNotDir
	}
	c.mu.Lock()
	out, ok := c.core.Listing(attr.ID, c.clk.Now())
	c.mu.Unlock()
	if ok {
		sortEntries(out)
		return out, nil
	}

	q := c.begin()
	var e proto.Enc
	e.U64(uint64(attr.ID))
	f, err := c.call(proto.TReadDir, e.Bytes())
	if err != nil {
		return nil, err
	}
	defer f.Recycle()
	dec := proto.NewDec(f.Payload)
	dattr := dec.Attr()
	grants := dec.DecodeGrants()
	n := dec.U32()
	if dec.Err != nil || n > 1<<20 {
		return nil, proto.ErrTruncated
	}
	out = make([]vfs.DirEntry, 0, n)
	ents := make(map[string]cache.Entry, n)
	for i := uint32(0); i < n; i++ {
		name := dec.Str()
		id := vfs.NodeID(dec.U64())
		isDir := dec.U8() == 1
		out = append(out, vfs.DirEntry{Name: name, ID: id, IsDir: isDir})
		ents[name] = cache.Entry{ID: id, IsDir: isDir}
	}
	if dec.Err != nil {
		return nil, dec.Err
	}
	c.mu.Lock()
	c.core.File(q, cache.Reply{Attr: dattr, Grants: grants, Ents: ents}, c.clk.Now())
	c.mu.Unlock()
	sortEntries(out)
	return out, nil
}

func sortEntries(out []vfs.DirEntry) {
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
}

// Create makes a file; Mkdir a directory. Both are writes to the parent
// binding and may block for lease clearance.
func (c *Cache) Create(path string, perm vfs.Perm) (vfs.Attr, error) {
	return c.createCommon(path, perm, proto.TCreate)
}

// Mkdir makes a directory.
func (c *Cache) Mkdir(path string, perm vfs.Perm) (vfs.Attr, error) {
	return c.createCommon(path, perm, proto.TMkdir)
}

// mutate sends a namespace mutation. This cache gets no callback for
// its own change and keeps its leases, so each caller patches the core
// from the reply, which names every directory touched. An error reply
// names none and may follow a change that applied in part (a cross-shard
// rename refused at the destination after the source removal): every
// cached directory goes.
func (c *Cache) mutate(t proto.MsgType, payload []byte) (proto.Frame, error) {
	f, err := c.call(t, payload)
	if errors.Is(err, ErrRemote) {
		c.mu.Lock()
		c.core.DropBindings()
		c.mu.Unlock()
	}
	return f, err
}

func (c *Cache) createCommon(path string, perm vfs.Perm, t proto.MsgType) (vfs.Attr, error) {
	var e proto.Enc
	e.Str(path).U8(uint8(perm))
	f, err := c.mutate(t, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer f.Recycle()
	dec := proto.NewDec(f.Payload)
	attr := dec.Attr()
	parent, version := vfs.NodeID(dec.U64()), dec.U64()
	if dec.Err != nil {
		return vfs.Attr{}, dec.Err
	}
	c.mu.Lock()
	c.core.OwnCreate(parent, version, baseOf(path), attr)
	c.mu.Unlock()
	return attr, nil
}

// Remove deletes a file or empty directory.
func (c *Cache) Remove(path string) error {
	var e proto.Enc
	e.Str(path)
	f, err := c.mutate(proto.TRemove, e.Bytes())
	if err != nil {
		return err
	}
	dec := proto.NewDec(f.Payload)
	dir, version := vfs.NodeID(dec.U64()), dec.U64()
	f.Recycle()
	c.mu.Lock()
	c.core.OwnRemove(dir, version, baseOf(path))
	c.mu.Unlock()
	return nil
}

// Rename moves oldPath to newPath.
func (c *Cache) Rename(oldPath, newPath string) error {
	var e proto.Enc
	e.Str(oldPath).Str(newPath)
	f, err := c.mutate(proto.TRename, e.Bytes())
	if err != nil {
		return err
	}
	dec := proto.NewDec(f.Payload)
	from, fromV, to, toV := vfs.NodeID(dec.U64()), dec.U64(), vfs.NodeID(dec.U64()), dec.U64()
	f.Recycle()
	c.mu.Lock()
	c.core.OwnRename(from, fromV, baseOf(oldPath), to, toV, baseOf(newPath))
	c.mu.Unlock()
	return nil
}

// Stat fetches attributes; it is Lookup under its file-system name,
// cached and served under the same binding leases.
func (c *Cache) Stat(path string) (vfs.Attr, error) {
	return c.Lookup(path)
}

// SetPerm changes a node's owner and permissions. Attribute information
// is part of the parent binding datum (§2), so the change defers on
// conflicting binding leases like any other write. Only the current
// owner may change attributes.
func (c *Cache) SetPerm(path, owner string, perm vfs.Perm) error {
	attr, err := c.Lookup(path)
	if err != nil {
		return err
	}
	var e proto.Enc
	e.U64(uint64(attr.ID)).Str(owner).U8(uint8(perm))
	if _, err := c.call(proto.TSetPerm, e.Bytes()); err != nil {
		return err
	}
	// The cached attribute copy is stale; drop it so the next lookup
	// refetches (the binding lease itself is retained — implicit
	// approval by the writer).
	c.mu.Lock()
	c.core.DropAttr(cache.Entry{ID: attr.ID, IsDir: attr.IsDir}.Datum())
	c.mu.Unlock()
	return nil
}

// ExtendAll renews every lease the cache holds in one batched request
// (§3.1: "a cache should extend together all leases over all files that
// it still holds"). It is the blocking form of StartExtendAll.
func (c *Cache) ExtendAll() error {
	return c.StartExtendAll().Wait()
}

// WireStats returns this cache's per-message-type traffic counters,
// accumulated across connection incarnations.
func (c *Cache) WireStats() *proto.WireStats { return c.wire }

// InstalledClass reports the held installed-class snapshot (§4.3): its
// generation (zero = none), its member count, and whether it is stale
// (a refetch is pending).
func (c *Cache) InstalledClass() (gen uint64, members int, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Class()
}

// extendLoop is the anticipatory-renewal loop (§4): each round it
// refetches the installed-class snapshot if stale, extends the leases
// that have come within half an AutoExtend period of expiring, and
// sleeps until the next lease approaches expiry — never longer than one
// period, so newly granted short leases are still picked up in time.
// Failed rounds are surfaced (satellite of §5's fault model: a client
// that cannot renew is about to lose its working set and should hear
// about it): each failure is counted, traced, and reported to
// Config.OnExtendFailure with the consecutive-failure count.
func (c *Cache) extendLoop() {
	defer c.wg.Done()
	base := c.cfg.AutoExtend
	consecutive := 0
	for {
		plan, refetch := c.planRenewal(base)
		if len(plan.Due) > 0 || refetch {
			if err := c.extendRound(plan.Due, refetch); err != nil {
				consecutive++
				if c.cfg.Obs.Enabled() {
					c.cfg.Obs.Record(obs.Event{
						Type: obs.EvExtendFailure, Client: c.cfg.ID, Depth: consecutive,
					})
				}
				if c.cfg.OnExtendFailure != nil {
					c.cfg.OnExtendFailure(err, consecutive)
				}
			} else {
				consecutive = 0
			}
			// Replan: a successful round pushed expiries out (sleep to the
			// next horizon), a failed one left them due (retry at the
			// clamped floor instead of spinning).
			plan, _ = c.planRenewal(base)
		}
		ch, stop := c.clk.After(plan.Wake)
		select {
		case <-c.stopping:
			stop()
			return
		case <-c.extendKick:
			stop()
		case <-ch:
		}
	}
}

// planRenewal plans one renewal round over the held leases, and reports
// whether the installed snapshot needs a refetch: a broadcast stamped a
// generation this cache does not hold.
func (c *Cache) planRenewal(base time.Duration) (plan cache.RenewPlan, refetch bool) {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _, stale := c.core.Class()
	return c.core.PlanRenewal(now, base), stale
}

// extendRound performs one renewal round: refetch the installed
// snapshot if asked, then extend the due leases in one batch. The
// extension error wins — it is the one that costs coverage.
func (c *Cache) extendRound(due []vfs.Datum, refetch bool) error {
	var refreshErr error
	if refetch {
		refreshErr = c.refreshInstalled()
	}
	if len(due) > 0 {
		if err := c.startExtend(due).Wait(); err != nil {
			return err
		}
	}
	return refreshErr
}

// refreshInstalled fetches the installed-class snapshot (TInstalled)
// and applies it: membership replaces the held snapshot, and every
// member this cache holds a lease on is covered to the server-stamped
// SentAt + Term − ε. One attempt per round; the next round retries.
func (c *Cache) refreshInstalled() error {
	c.mu.Lock()
	gen, _, _ := c.core.Class()
	c.mu.Unlock()
	var e proto.Enc
	e.U64(gen)
	f, err := c.callOnce(proto.TInstalled, e.Bytes())
	if err != nil {
		return err
	}
	defer f.Recycle()
	d := proto.NewDec(f.Payload)
	w := d.DecodeInstalled()
	if d.Err != nil {
		return d.Err
	}
	c.mu.Lock()
	c.core.Snapshot(w.Generation, w.Term, w.Data, w.SentAt, c.clk.Now())
	c.mu.Unlock()
	return nil
}
