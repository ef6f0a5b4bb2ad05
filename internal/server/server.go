// Package server is the networked lease file server: the vfs store and
// the core lease manager behind a TCP wire protocol (internal/proto).
//
// Reads and lookups grant leases. Writes — both file contents and
// name-binding mutations (create, remove, rename), which the paper is
// explicit are writes too (§2) — are deferred until every conflicting
// leaseholder approves via the callback push or its lease expires. A
// binding mutation needs clearance on more than one datum (the removed
// file's data and its directory's binding); clearances are acquired in
// a global datum order so concurrent multi-datum writes cannot
// deadlock. That order, and the replication and class tables it reads,
// live in internal/srvcore; this package is its blocking TCP driver.
//
// Concurrency model: one goroutine per connection reads frames and runs
// each request to completion — handler, reply, next frame — so a request
// that finishes without waiting starts no goroutine. One that must wait
// (a write deferred behind another client's lease, a recovery window, a
// quorum round, a call to another shard group) moves, at the first step
// that waits, to a goroutine of its own: it blocks only itself, and holds
// the timer for the instant its blocking leases run out, while the reader
// goes on to the frames behind it, the approvals it waits for among them.
// Lease state is lock-striped across the shards of a core.ShardedManager,
// so connections touching different data proceed in parallel; the vfs
// store carries its own lock. Connection registry and write waiters sit
// behind two small dedicated locks (connMu, waitMu) that are never held
// across lease-manager calls.
package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// Config parameterizes a server.
type Config struct {
	// Term is the lease term of a fresh grant; a reused, uncontended
	// lease renews for core.ReuseFactor terms.
	Term time.Duration
	// Clock supplies time; nil means the real clock.
	Clock clock.Clock
	// Owner owns the store root.
	Owner string
	// RecoveryWindow, when positive, delays all writes for that long
	// after startup — the restart-after-crash rule (§2). A fresh server
	// passes zero.
	RecoveryWindow time.Duration
	// WriteTimeout bounds how long a write may stay deferred before the
	// server fails it back to the writer. Zero means no bound (an
	// unreachable holder with an infinite lease blocks forever, as the
	// protocol dictates).
	WriteTimeout time.Duration
	// Shards is the number of lock stripes in the lease manager. Zero
	// means core.DefaultShards; 1 degenerates to a single global lock.
	Shards int
	// MaxTermPath, when non-empty, makes crash recovery automatic: the
	// largest lease term ever granted is persisted to this file
	// (atomic temp+rename, fsync'd) *before* the grant is sent, and a
	// restarting server finding the file observes the §2 recovery
	// window for the persisted value without the operator passing
	// RecoveryWindow by hand. An explicit RecoveryWindow still wins. A
	// load or parse failure is reported by Serve/ListenAndServe —
	// serving with a recovery window shorter than an outstanding lease
	// would risk the one thing leases never allow, a stale read.
	MaxTermPath string
	// Obs, when non-nil, receives protocol trace events and per-op
	// latency observations. Nil disables instrumentation; the request
	// path then costs one branch per hook and no allocations.
	Obs *obs.Observer
	// Tracer, when non-nil, records causal spans for sampled requests:
	// dispatch, the approval fan-out per holder, write apply, and the
	// per-peer replication ships. Trace contexts arrive in the wire
	// frames of sampled requests. Nil disables tracing at the same cost
	// as Obs: one branch, no allocations.
	Tracer *tracing.Tracer
	// Replica, when non-nil, runs this server as one replica of a
	// replicated lease service: hellos are refused (with a redirect
	// hint) unless this replica holds the master lease, committed
	// writes are pushed to a quorum before they apply locally, and
	// max-term raises replicate before the grant is sent. See
	// internal/server/replica.go for the contract.
	Replica Replica
	// Class configures the §4.3 lease-class subsystem (installed-files
	// leases with broadcast extension and drop-on-write). The zero value
	// disables it: the server then sends no class frame. See classes.go.
	Class ClassConfig
	// Shard places this server in a sharded deployment (see shard.go).
	// The zero value is unsharded: no ownership checks, so no TNotOwner.
	Shard ShardConfig

	// noStretch grants every lease exactly Term (srvcore.Config.NoStretch).
	// Only the package's tests set it.
	noStretch bool
}

// Server is a running lease file server.
type Server struct {
	cfg   Config
	clk   clock.Clock
	store *vfs.Store
	// core is the protocol core: the order every mutation goes through
	// and the replication and class tables. lm is its lease manager, for
	// the grant and approve paths.
	core   *srvcore.Core
	lm     *core.ShardedManager
	obs    *obs.Observer   // nil = instrumentation disabled
	tracer *tracing.Tracer // nil = tracing disabled

	// wire counts frames per type and direction across every connection.
	wire *proto.WireStats

	// spanMu guards writeSpans: the open approval-push spans of traced
	// deferred writes, keyed by write and holder, so the approve path
	// (conn.go), the expiry release and the timeout path can each end
	// the spans of the holders they unblocked. Populated only for
	// sampled writes — untraced writes never touch the map.
	spanMu     sync.Mutex
	writeSpans map[pushKey]tracing.Span

	connMu sync.RWMutex // conns, raw, ln, mover
	conns  map[core.ClientID]*serverConn
	raw    map[net.Conn]struct{} // every accepted conn, pre- or post-hello

	waitMu  sync.Mutex
	waiters map[core.WriteID]chan struct{}

	ln net.Listener
	// mover sends a sharded server's cross-shard moves (see
	// crossShardRename); Serve builds it once the listen address that
	// names it is known, and Stop closes it.
	mover    *client.Router
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	// boot identifies this server incarnation; it is carried in the
	// hello ack so a reconnecting client can tell a restart (leases
	// gone, recovery window running) from a transient network fault.
	boot uint64
	// maxTermF persists MaxTermGranted for crash recovery; nil when
	// Config.MaxTermPath is empty. initErr defers a max-term load
	// failure from New (which cannot fail) to Serve (which can).
	maxTermF *maxTermFile
	initErr  error
}

// New creates a server with an empty store.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Owner == "" {
		cfg.Owner = "root"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = core.DefaultShards
	}
	cfg.Class = cfg.Class.WithDefaults()
	var recoverUntil time.Time
	var maxTermF *maxTermFile
	var initErr error
	if cfg.RecoveryWindow > 0 {
		recoverUntil = cfg.Clock.Now().Add(cfg.RecoveryWindow)
	}
	if cfg.MaxTermPath != "" {
		persisted, found, err := LoadMaxTerm(cfg.MaxTermPath)
		if err != nil {
			initErr = err
		} else {
			maxTermF = &maxTermFile{path: cfg.MaxTermPath, last: persisted}
			if found && persisted > 0 && cfg.RecoveryWindow == 0 {
				// Restart after a crash: automatically defer all writes
				// for the persisted maximum granted term (§2).
				recoverUntil = cfg.Clock.Now().Add(persisted)
			}
		}
	}
	store := vfs.New(cfg.Clock, cfg.Owner)
	ccfg := srvcore.Config{
		Store: store, Owner: cfg.Owner, Term: cfg.Term, Shards: cfg.Shards, RecoverUntil: recoverUntil,
		Class: cfg.Class, NoStretch: cfg.noStretch,
	}
	if r := cfg.Replica; r != nil {
		ccfg.Master = func(time.Time) bool { return r.IsMaster() }
	}
	pc := srvcore.New(ccfg)
	return &Server{
		cfg:        cfg,
		clk:        cfg.Clock,
		obs:        cfg.Obs,
		tracer:     cfg.Tracer,
		store:      store,
		core:       pc,
		lm:         pc.Leases(),
		conns:      make(map[core.ClientID]*serverConn),
		raw:        make(map[net.Conn]struct{}),
		waiters:    make(map[core.WriteID]chan struct{}),
		writeSpans: make(map[pushKey]tracing.Span),
		stopped:    make(chan struct{}),

		boot:     uint64(time.Now().UnixNano()),
		maxTermF: maxTermF,
		initErr:  initErr,

		wire: &proto.WireStats{},
	}
}

// WireStats exposes the per-message-type traffic counters aggregated
// across every connection this server served.
func (s *Server) WireStats() *proto.WireStats { return s.wire }

// Store exposes the underlying file store (e.g. to seed test fixtures
// before serving).
func (s *Server) Store() *vfs.Store { return s.store }

// MaxTermGranted reports the value a deployment persists for crash
// recovery.
func (s *Server) MaxTermGranted() time.Duration { return s.lm.MaxTermGranted() }

// Metrics reports the lease manager's event counters, summed across
// shards.
func (s *Server) Metrics() core.ManagerMetrics { return s.lm.Metrics() }

// LeaseCount reports the current number of lease records across shards.
func (s *Server) LeaseCount() int { return s.lm.LeaseCount() }

// Snapshot returns the current lease records (the detailed persistent
// record recovery alternative), merged across shards in deterministic
// order.
func (s *Server) Snapshot() []core.LeaseSnapshot { return s.lm.Snapshot(s.clk.Now()) }

// Restore loads lease records persisted before a crash, routing each to
// its shard.
func (s *Server) Restore(records []core.LeaseSnapshot) { s.lm.Restore(records, s.clk.Now()) }

// ListenAndServe binds addr and serves until Stop.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Stop. It returns nil after Stop.
func (s *Server) Serve(ln net.Listener) error {
	if s.initErr != nil {
		ln.Close()
		return s.initErr
	}
	s.connMu.Lock()
	s.ln = ln
	if ring := s.cfg.Shard.Ring; ring != nil {
		// On the wall clock, as every socket deadline: the server's own
		// clock may be simulated.
		s.mover, _ = client.NewRouter(ring, client.Config{
			ID:        fmt.Sprintf("shard-move:%d@%s", s.cfg.Shard.GroupID, ln.Addr()),
			Reconnect: true, RetryWait: shardCallTimeout,
		})
	}
	s.connMu.Unlock()
	if s.core.Classes != nil {
		s.wg.Add(1)
		go s.broadcastLoop()
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stopped:
				s.wg.Wait()
				return nil
			default:
				return err
			}
		}
		// Keepalive detects silently dead peers (a crashed or
		// partitioned client's conn otherwise lingers until its next
		// write), bounding how long a dead session holds resources.
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(30 * time.Second)
		}
		s.connMu.Lock()
		s.raw[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// BootID identifies this server incarnation; clients receive it in the
// hello ack and use a change to detect a restart across a reconnect.
func (s *Server) BootID() uint64 { return s.boot }

// Addr reports the bound address, for clients of a test server.
func (s *Server) Addr() net.Addr {
	s.connMu.RLock()
	defer s.connMu.RUnlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stop shuts the server down: the listener closes, connections and the
// mover's sessions drop, deferred writes fail back to their writers.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		s.connMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for nc := range s.raw {
			nc.Close()
		}
		mover := s.mover
		s.connMu.Unlock()
		if mover != nil {
			mover.Close()
		}
	})
	s.wg.Wait()
}

// releaseReady signals the waiter of every write the shard considers
// releasable and returns the writes whose waiters it woke — the return
// is collected only when the observer is enabled (it exists to label
// expiry events) so the common path never allocates. Readiness is
// sticky (a ready write stays ready until applied or cancelled), so
// concurrent callers cannot lose a wakeup: whoever registered the
// waiter last re-checks after registering.
func (s *Server) releaseReady(shard int) []core.WriteID {
	ready := s.lm.ReadyWritesShard(shard, s.clk.Now())
	if len(ready) == 0 {
		return nil
	}
	var released []core.WriteID
	s.waitMu.Lock()
	for _, id := range ready {
		if ch, ok := s.waiters[id]; ok {
			delete(s.waiters, id)
			close(ch)
			if s.obs.Enabled() {
				released = append(released, id)
			}
		}
	}
	s.waitMu.Unlock()
	return released
}

// errShutdown reports a write aborted by server shutdown or timeout.
var errShutdown = errors.New("server: shutting down")

// pushKey names one holder's approval-push span of a traced write.
type pushKey struct {
	id     core.WriteID
	holder core.ClientID
}

// endApprovalSpan ends one holder's approval-push span, whichever path
// unblocked the holder: its approval ("approve"), its lease expiring
// ("expire"), the write timeout ("timeout"), or shutdown ("cancel"). A
// miss is fine — the write was untraced or the span already ended.
func (s *Server) endApprovalSpan(id core.WriteID, holder core.ClientID, note string) {
	s.spanMu.Lock()
	sp, ok := s.writeSpans[pushKey{id, holder}]
	delete(s.writeSpans, pushKey{id, holder})
	s.spanMu.Unlock()
	if ok {
		sp.EndNote(note)
	}
}

// run drives r's plan (drive) and answers a failed one with its error.
// It reports whether r.op has been applied and the reply is due.
func (s *Server) run(c *serverConn, r *request) bool {
	err := s.drive(c, r)
	if err != nil {
		c.fail(r.f.ReqID, err)
	}
	return err == nil && !r.parked
}

// drive drives r's plan to its end for connection c, blocking the calling
// goroutine on whatever step the plan returns — unless that is the
// connection's reader (r.inline), which must not wait: at the first step
// that has to (a recovery window or class horizon, another client's
// lease, a quorum round) drive leaves the step in r, marks r parked and
// returns nil, and the request takes it up again on a goroutine of its
// own. Otherwise it returns the plan's error: nil when r.op has been
// applied to the store, what that returned in r.res. A sampled request's
// deferrals and its apply record spans (write.defer, one child per holder
// asked, ended with the reason the holder stopped blocking; write.apply).
func (s *Server) drive(c *serverConn, r *request) error {
	p, tc, writer, st := &r.plan, r.sp.Context(), c.client, r.step
	if st.Kind == 0 {
		r.start = s.clk.Now()
		st = p.Next(r.start)
	}
	// waiting is the held write this request is blocked on, deferSpan its
	// open write.defer span, failNote what ends them if the plan fails.
	var waiting core.WriteID
	var holders []core.ClientID
	var deadline time.Time
	var deferSpan tracing.Span
	failNote := "cancel"
	for ; ; st = p.Next(s.clk.Now()) {
		// A demotion only waits where its image has a quorum to go to.
		if k := st.Kind; r.inline && (k == srvcore.Wait || k == srvcore.Approval || k == srvcore.Ship ||
			k == srvcore.Demoted && s.cfg.Replica != nil) {
			r.step, r.parked = st, true
			return nil
		}
		if waiting != 0 && (st.Kind != srvcore.Approval || st.WriteID != waiting) {
			// Any push span still open belongs to a holder that never
			// approved: the release came from its lease expiring (§2).
			pushNote, note := "expire", "cleared"
			if st.Kind == srvcore.Fail {
				pushNote, note = failNote, failNote
			}
			if deferSpan.Recording() {
				for _, h := range holders {
					s.endApprovalSpan(waiting, h, pushNote)
				}
			}
			deferSpan.EndNote(note)
			waiting = 0
		}
		switch st.Kind {
		case srvcore.Wait:
			if !s.sleepUntil(st.Until) {
				p.Abort(errShutdown, s.clk.Now())
			}
		case srvcore.Demoted:
			if s.obs.Enabled() {
				for _, d := range st.Dropped {
					s.obs.Record(obs.Event{Type: obs.EvClassDemote, Datum: d, Shard: s.lm.ShardFor(d)})
				}
			}
			s.shipClassImage(srvcore.ReplFile{Path: st.Path, Seq: st.Seq, Data: st.Data})
		case srvcore.Approval:
			if st.WriteID != waiting {
				waiting, holders, deadline = st.WriteID, st.Holders, st.Until
				deferSpan = s.askHolders(st, writer, tc)
			}
			if note, err := s.awaitReady(st, &deadline, writer, r.start); err != nil {
				failNote = note
				p.Abort(err, s.clk.Now())
			}
		case srvcore.Ship:
			var err error
			if o := s.obs; o.Enabled() {
				// The quorum wait is the replication tax every write pays
				// before it may apply — the /metrics histogram an operator
				// reads next to the per-peer ship latencies.
				t0 := s.clk.Now()
				err = s.cfg.Replica.ReplicateWrite(tc, st.Path, st.Seq, st.Data)
				o.ObserveOp("repl-quorum-wait", s.clk.Now().Sub(t0))
			} else {
				err = s.cfg.Replica.ReplicateWrite(tc, st.Path, st.Seq, st.Data)
			}
			p.Shipped(err, s.clk.Now())
		case srvcore.Apply:
			if s.obs.Enabled() {
				// One apply event per write operation; Wait is the full
				// clearance time across every datum — the paper's formula-2
				// added delay as a writer experiences it.
				s.obs.Record(obs.Event{
					Type: obs.EvWriteApply, Client: string(writer), Datum: st.Datum,
					Shard: s.lm.ShardFor(st.Datum), WriteID: uint64(st.WriteID),
					Wait: s.clk.Now().Sub(r.start),
				})
			}
			applySpan := s.tracer.StartChild(tc, "write.apply")
			var err error
			r.res, err = s.store.Apply(r.op)
			if err != nil {
				applySpan.EndNote("error")
			} else {
				applySpan.End()
			}
			p.Applied(err, s.clk.Now())
		case srvcore.Done, srvcore.Fail:
			// Releasing or cancelling the held entries may unblock the next
			// write queued on the same datum.
			for _, d := range p.Data() {
				s.releaseReady(s.lm.ShardFor(d))
			}
			return st.Err
		}
	}
}

// sleepUntil blocks until the clock reads t; false means the server
// stopped first.
func (s *Server) sleepUntil(t time.Time) bool {
	fire, stopTimer := s.clk.After(t.Sub(s.clk.Now()))
	select {
	case <-fire:
		return true
	case <-s.stopped:
		stopTimer()
		return false
	}
}

// askHolders pushes an approval request to every connected holder a
// deferred write waits on. For a traced write each push opens a child
// span ended by the approve, expire, or timeout path; the returned
// write.defer span carries the fan-out width the span-tree lens checks
// against the recorded pushes.
func (s *Server) askHolders(st srvcore.Step, writer core.ClientID, tc tracing.Context) tracing.Span {
	shard := s.lm.ShardForWrite(st.WriteID)
	if s.obs.Enabled() && (len(st.Holders) > 0 || !st.Until.IsZero()) {
		s.obs.Record(obs.Event{
			Type: obs.EvWriteDefer, Client: string(writer), Datum: st.Datum,
			Shard: shard, WriteID: uint64(st.WriteID),
		})
	}
	deferSpan := s.tracer.StartChild(tc, "write.defer")
	pushed := 0
	s.connMu.RLock()
	for _, holder := range st.Holders {
		if hc, ok := s.conns[holder]; ok {
			if deferSpan.Recording() {
				sp := s.tracer.StartChild(deferSpan.Context(), "approve.push")
				sp.Annotate("holder=" + string(holder))
				s.spanMu.Lock()
				s.writeSpans[pushKey{st.WriteID, holder}] = sp
				s.spanMu.Unlock()
			}
			hc.pushApproval(proto.ApprovalWire{WriteID: st.WriteID, Datum: st.Datum})
			pushed++
			if s.obs.Enabled() {
				s.obs.Record(obs.Event{
					Type: obs.EvApproveRequest, Client: string(holder), Datum: st.Datum,
					Shard: shard, WriteID: uint64(st.WriteID),
				})
			}
		}
	}
	s.connMu.RUnlock()
	deferSpan.SetFanout(pushed)
	return deferSpan
}

// awaitReady blocks until the lease manager reports the step's held
// write ready (the plan then verifies it): approvals and releases signal
// its waiter, and the request's own timer fires when the last blocking
// lease runs out at deadline — only ever earlier than first told, since
// no lease is extended under a pending write. It also returns when the
// write timeout passes or the server stops: a non-nil error is why the
// driver gives the plan up, and note labels the trace spans it leaves.
func (s *Server) awaitReady(st srvcore.Step, deadline *time.Time, writer core.ClientID, start time.Time) (note string, err error) {
	shard := s.lm.ShardForWrite(st.WriteID)
	ch := make(chan struct{})
	s.waitMu.Lock()
	s.waiters[st.WriteID] = ch
	s.waitMu.Unlock()
	defer func() {
		s.waitMu.Lock()
		delete(s.waiters, st.WriteID)
		s.waitMu.Unlock()
	}()
	// Re-check after registering the waiter: approvals or expiries that
	// landed before the registration left the write ready (readiness is
	// sticky), and this call claims it.
	s.releaseReady(shard)

	var expiry, timeout <-chan time.Time
	if !deadline.IsZero() {
		var stopTimer func() bool
		expiry, stopTimer = s.clk.After(deadline.Sub(s.clk.Now()) + time.Millisecond)
		defer stopTimer()
	}
	if s.cfg.WriteTimeout > 0 {
		var stopTimer func() bool
		timeout, stopTimer = s.clk.After(s.cfg.WriteTimeout)
		defer stopTimer()
	}
	select {
	case <-ch:
		return "", nil
	case <-expiry:
		// Released by the passage of time — the fault-tolerance path (§2).
		// A write still queued behind another is woken by that one's end.
		*deadline = time.Time{}
		released := s.releaseReady(shard)
		if s.obs.Enabled() {
			for _, id := range released {
				s.obs.Record(obs.Event{Type: obs.EvExpire, WriteID: uint64(id), Shard: shard})
			}
		}
		return "", nil
	case <-s.stopped:
		return "cancel", errShutdown
	case <-timeout:
		now := s.clk.Now()
		if s.lm.WriteReady(st.WriteID, now) {
			return "", nil // cleared concurrently with the timeout: proceed
		}
		if s.obs.Enabled() {
			s.obs.Record(obs.Event{
				Type: obs.EvWriteTimeout, Client: string(writer), Datum: st.Datum,
				Shard: shard, WriteID: uint64(st.WriteID), Wait: now.Sub(start),
			})
		}
		return "timeout", fmt.Errorf("server: write timed out awaiting lease clearance on %v", st.Datum)
	}
}

// parentOf returns the directory part of a path.
func parentOf(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}
