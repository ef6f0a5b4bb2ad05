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
// deadlock. That order, the machine that drives it and the replication
// and class tables it reads live in internal/srvcore; this package is
// its TCP shell.
//
// Concurrency model: one goroutine per connection reads frames and runs
// each request to completion — handler, reply, next frame — so a request
// that finishes without waiting starts no goroutine. A write deferred
// behind another client's lease, a recovery window or a class horizon is
// parked: a record in the srvcore.Machine's table, woken by approvals,
// releases, other writes' ends and the server's one wake timer, and run
// on (apply and reply) by a goroutine of its own once handed back. One
// that waits on a quorum round or a call to another shard group moves to
// a goroutine of its own at that step. Either way the reader goes on to
// the frames behind it, the approvals a parked write waits for among
// them. Lease state is lock-striped across the shards of a
// core.ShardedManager, so connections touching different data proceed
// in parallel; the vfs store carries its own lock, the machine its own,
// and the connection registry a small dedicated lock (connMu) never held
// across lease-manager calls.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"net"
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
	// MaxTermPath, when non-empty, makes crash recovery automatic:
	// Serve raises this file (atomic temp+rename, fsync'd) to the
	// longest term the configuration can grant (srvcore.Config.Ceiling)
	// before it accepts a connection, and a restarting server finding
	// the file observes the §2 recovery window for the persisted value
	// without the operator passing RecoveryWindow by hand. An explicit
	// RecoveryWindow still wins. A load or parse failure, or a ceiling
	// past MaxDurableTerm, is reported by Serve/ListenAndServe — serving
	// with a recovery window shorter than an outstanding lease would
	// risk the one thing leases never allow, a stale read.
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
	// a promotion replicates this server's term ceiling before its gate
	// opens. See internal/server/replica.go for the contract.
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

	// m runs every plan: a write that waits is a record in its table, and
	// rewake tells wakeLoop, which keeps the one timer for them all, that
	// the instant it wants ticked moved.
	m      *srvcore.Machine
	rewake chan struct{}

	connMu sync.RWMutex // conns, raw, ln, mover
	conns  map[core.ClientID]*serverConn
	raw    map[net.Conn]struct{} // every accepted conn, pre- or post-hello

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
	// ceiling is the longest term this server can grant
	// (srvcore.Config.Ceiling): what Serve makes durable and a promotion
	// replicates. initErr defers a max-term load failure from New (which
	// cannot fail) to Serve (which can). fileMu orders the max-term
	// file's read-compare-write between Serve and the replica's raises.
	ceiling time.Duration
	initErr error
	fileMu  sync.Mutex
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
	// Restart after a crash: defer all writes for the persisted maximum
	// term (§2), unless the operator passed a window.
	var persisted time.Duration
	var initErr error
	if cfg.MaxTermPath != "" {
		persisted, _, initErr = LoadMaxTerm(cfg.MaxTermPath)
	}
	var recoverUntil time.Time
	if w := cmp.Or(cfg.RecoveryWindow, persisted); w > 0 {
		recoverUntil = cfg.Clock.Now().Add(w)
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
	pc.RaiseTerm(persisted) // a replica's contribution to the next promotion's floor
	return &Server{
		cfg:     cfg,
		clk:     cfg.Clock,
		obs:     cfg.Obs,
		tracer:  cfg.Tracer,
		store:   store,
		core:    pc,
		lm:      pc.Leases(),
		m:       srvcore.NewMachine(pc, cfg.WriteTimeout, cfg.Tracer, cfg.Obs, ""),
		rewake:  make(chan struct{}, 1),
		conns:   make(map[core.ClientID]*serverConn),
		raw:     make(map[net.Conn]struct{}),
		stopped: make(chan struct{}),

		boot:    uint64(time.Now().UnixNano()),
		ceiling: ccfg.Ceiling(),
		initErr: initErr,

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

// Snapshot returns the current lease records, merged across shards in
// deterministic order (the admin plane's /leases).
func (s *Server) Snapshot() []core.LeaseSnapshot { return s.lm.Snapshot(s.clk.Now()) }

// ListenAndServe binds addr and serves until Stop.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Stop. It returns nil after Stop.
// Before its first accept it raises the max-term file, when configured,
// to the server's term ceiling, and returns the error if that fails.
func (s *Server) Serve(ln net.Listener) error {
	// Every wg.Add below is made under connMu after a look at stopped:
	// Stop closes stopped before it takes connMu, and Waits after, so a
	// server stopped first starts nothing and no Add races the Wait. The
	// max-term write runs under connMu too, so a Serve that begins after
	// Stop writes nothing, and a Stop waits out a write already running.
	s.connMu.Lock()
	err := s.initErr
	if err == nil && !s.isStopped() {
		err = s.persist(s.ceiling)
	}
	if err != nil || s.isStopped() {
		s.connMu.Unlock()
		ln.Close()
		return err
	}
	s.ln = ln
	if ring := s.cfg.Shard.Ring; ring != nil {
		// On the wall clock, as every socket deadline: the server's own
		// clock may be simulated.
		s.mover, _ = client.NewRouter(ring, client.Config{
			ID:        fmt.Sprintf("shard-move:%d@%s", s.cfg.Shard.GroupID, ln.Addr()),
			Reconnect: true, RetryWait: shardCallTimeout,
		})
	}
	s.wg.Add(1)
	go s.wakeLoop()
	if s.core.Classes != nil {
		s.wg.Add(1)
		go s.broadcastLoop()
	}
	s.connMu.Unlock()
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
		if s.isStopped() {
			s.connMu.Unlock()
			c.Close()
			continue // the closed listener ends the loop
		}
		s.raw[c] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.serveConn(c)
	}
}

func (s *Server) isStopped() bool {
	select {
	case <-s.stopped:
		return true
	default:
		return false
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

// Stop shuts the server down: the listener closes, deferred writes fail
// back to their writers, connections and the mover's sessions drop.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.perform(s.m.Close(errShutdown, s.clk.Now()))
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

// errShutdown fails a write parked at server shutdown.
var errShutdown = errors.New("server: shutting down")

// run drives r's plan (advance) and answers a failed one with its error.
// It reports whether its op has been applied and the reply is due. A plan
// the closed serving gate refused is answered as Demote answers it: the
// connection is severed, so the client's session redials toward the
// master and resubmits there.
func (s *Server) run(c *serverConn, r *request, op vfs.Op) bool {
	err := s.advance(r, op)
	switch {
	case r.parked:
		return false
	case errors.Is(err, srvcore.ErrNotMaster):
		c.close()
	case err != nil:
		c.fail(r.f.ReqID, err)
	}
	return err == nil
}

// advance performs the steps the machine hands r's plan, from r.step or
// else from the start: the plan of op, which srvcore's mutation rule
// makes (srvcore.Core.Plan: what op clears, checks and ships). It goes
// until the plan ends — returning its error: nil once its op was applied,
// with what that returned in r.res — or r.parked: its plan waits in the
// machine's table, or on a quorum round, which the connection's reader
// (r.inline) must not wait on. Whoever takes the request up from there
// enters its handler again.
func (s *Server) advance(r *request, op vfs.Op) error {
	p, e := &r.plan, srvcore.Effects{Step: r.step}
	if r.step = (srvcore.Step{}); e.Step.Kind == 0 {
		var err error
		if *p, err = s.core.Plan(r.c.client, op); err != nil {
			return err
		}
		e = s.m.Begin(p, r.sp.Context(), s.clk.Now())
	}
	for {
		s.perform(e)
		st := e.Step
		switch {
		case st.Kind == srvcore.Wait || st.Kind == srvcore.Approval:
			// The table holds a copy, paid for by a request that waits and
			// by no other: whoever is handed it back may run it before this
			// goroutine is done with r.
			pr := *r
			pr.inline, r.parked = false, true
			s.perform(s.m.Park(&pr.plan, &pr, st, s.clk.Now()))
			return nil
		case r.inline && (st.Kind == srvcore.Ship || st.Kind == srvcore.Demoted && s.cfg.Replica != nil):
			s.handOff(r, st) // a quorum round
			return nil
		case st.Kind == srvcore.Demoted:
			s.shipClassImage(srvcore.ReplFile{Path: st.Path, Seq: st.Seq, Data: st.Data})
			e = s.m.Next(p, s.clk.Now())
		case st.Kind == srvcore.Ship:
			// The quorum wait is the replication tax every write pays before
			// it may apply — the /metrics histogram an operator reads next to
			// the per-peer ship latencies.
			t0 := s.clk.Now()
			err := s.cfg.Replica.ReplicateWrite(r.sp.Context(), st.Path, st.Seq, st.Data)
			if s.obs.Enabled() {
				s.obs.ObserveOp("repl-quorum-wait", s.clk.Now().Sub(t0))
			}
			e = s.m.Report(p, err, s.clk.Now())
		case st.Kind == srvcore.Apply:
			applySpan := s.tracer.StartChild(r.sp.Context(), "write.apply")
			var err error
			if r.res, err = s.store.Apply(p.Op()); err != nil {
				applySpan.EndNote("error")
			} else {
				applySpan.End()
			}
			e = s.m.Report(p, err, s.clk.Now())
		default: // Done, Fail
			return st.Err
		}
	}
}

// handOff moves r, at step st (zero: before it began), off the
// connection's reader to a goroutine of its own.
func (s *Server) handOff(r *request, st srvcore.Step) {
	hr := *r
	hr.inline, hr.step, r.parked = false, st, true
	s.resume(&hr)
}

// resume runs r's handler again on a goroutine of its own, unless the
// server stopped: Stop has failed every parked write back before that.
func (s *Server) resume(r *request) {
	s.connMu.RLock()
	defer s.connMu.RUnlock()
	if s.isStopped() {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r.c.serve(r)
	}()
}

// perform does, without blocking, what the machine handed out for its
// parked plans: it pushes a parked write's approval requests, and hands
// each plan past its wait to a goroutine that applies (or ships) it and
// replies. A changed table moves the server's one wake timer.
func (s *Server) perform(e srvcore.Effects) {
	for _, st := range e.Parked {
		switch r := st.Owner.(*request); st.Kind {
		case srvcore.Wait:
		case srvcore.Approval:
			a := proto.ApprovalWire{WriteID: st.WriteID, Datum: st.Datum}
			s.connMu.RLock()
			for _, holder := range st.Holders {
				if hc, ok := s.conns[holder]; ok {
					hc.pushApproval(a)
				}
			}
			s.connMu.RUnlock()
		default:
			r.parked, r.step = false, st
			s.resume(r)
		}
	}
	if len(e.Parked) > 0 {
		select {
		case s.rewake <- struct{}{}:
		default:
		}
	}
}

// wakeLoop keeps the server's one wake timer at the instant the machine
// next wants ticked.
func (s *Server) wakeLoop() {
	defer s.wg.Done()
	for {
		fire, stop := (<-chan time.Time)(nil), func() bool { return false }
		if t := s.m.NextWake(); !t.IsZero() {
			fire, stop = clock.At(s.clk, t)
		}
		select {
		case <-fire:
			s.perform(s.m.Tick(s.clk.Now()))
		case <-s.rewake:
			stop()
		case <-s.stopped:
			stop()
			return
		}
	}
}
