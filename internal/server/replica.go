package server

import (
	"fmt"
	"time"

	"leases/internal/obs/tracing"
	"leases/internal/srvcore"
)

// Replica abstracts the replication runtime (internal/replica.Node)
// behind plain types, so the server package does not import the
// election machinery: internal/cluster adapts a replica.Node to this
// interface when it boots a replicated member. A nil Replica in
// Config is the standalone server, byte-for-byte the old behavior.
//
// The contract the server relies on:
//
//   - Only one replica's IsMaster returns true at any instant (the
//     PaxosLease master lease, margined by the allowance so it holds
//     even across clock drift within the ε budget).
//   - ReplicateWrite returns nil only once a quorum of replicas
//     (counting this one) holds the write.
//   - ReplicateMaxTerm returns nil only once a quorum knows the term.
type Replica interface {
	// IsMaster reports whether this replica currently holds the master
	// lease on its own clock.
	IsMaster() bool
	// MasterIndex is this replica's belief about who the master is
	// (-1 when unknown). It is the redirect hint a refused hello
	// carries.
	MasterIndex() int
	// Role names the current role ("master", "candidate", "follower")
	// for the admin plane.
	Role() string
	// MasterExpiry is when this replica's master lease lapses on its
	// own clock (zero when not master).
	MasterExpiry() time.Time
	// ReplicateWrite pushes one committed file write to a quorum. tc
	// is the causing request's trace context: a sampled write's
	// per-peer ships record child spans under it (the zero context —
	// untraced — costs nothing).
	ReplicateWrite(tc tracing.Context, path string, seq uint64, data []byte) error
	// ReplicateMaxTerm pushes a new maximum granted term to a quorum.
	ReplicateMaxTerm(d time.Duration) error
}

// ReplFile is one replicated file's state, as exchanged during a new
// master's catch-up sync.
type ReplFile = srvcore.ReplFile

// floor reads the persisted maximum without touching durable.go's
// update path.
func (f *maxTermFile) floor() time.Duration {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// replicateTermRaise mirrors maxTermFile.update at the replication
// layer: before a grant whose term exceeds every quorum-acknowledged
// maximum reaches a client, the new maximum is pushed to a quorum, so
// a failing-over master reconstructs the §2 recovery window without
// this replica's disk. Raises are monotonic and rare (once per policy
// change under a fixed-term policy), so the steady-state cost is one
// mutex'd comparison.
func (s *Server) replicateTermRaise(term time.Duration) error {
	r := s.cfg.Replica
	if r == nil || term <= s.core.TermFloor() {
		return nil
	}
	if o := s.obs; o.Enabled() {
		start := s.clk.Now()
		err := r.ReplicateMaxTerm(term)
		o.ObserveOp("repl-term-quorum-wait", s.clk.Now().Sub(start))
		if err != nil {
			return err
		}
	} else if err := r.ReplicateMaxTerm(term); err != nil {
		return err
	}
	s.core.RaiseTerm(term)
	return nil
}

// ApplyReplicated installs one replicated write pushed by the master,
// reporting whether it was actually applied (false: dropped as stale).
// See srvcore.Core.ApplyReplicated.
func (s *Server) ApplyReplicated(path string, seq uint64, data []byte) (applied bool, err error) {
	return s.core.ApplyReplicated(path, seq, data)
}

// ReplState dumps every file's replicated state, answering a new
// master's catch-up sync.
func (s *Server) ReplState() []ReplFile { return s.core.ReplState() }

// PersistMaxTerm records a master's replicated term raise: the floor a
// future promotion on this replica must wait out. When this replica
// keeps its own durable max-term file the raise is persisted there
// too, so even a restart-then-promote sequence observes it.
func (s *Server) PersistMaxTerm(d time.Duration) error {
	s.core.RaiseTerm(d)
	if s.maxTermF != nil {
		return s.maxTermF.update(d)
	}
	return nil
}

// Promote applies the catch-up state synced from a quorum of peers,
// ships whatever the merge left unsettled to a quorum, and opens the §2
// recovery window (srvcore.Core has the merge, the settle rule and the
// window arithmetic; this replica's own persisted floor joins the
// quorum's here). Serving opens only then: hellos and every plan check
// the core's gate. If the mastership lapses first the gate stays closed
// and the next election retries the whole sequence.
// tc is the failover's trace context (the election trace from
// internal/replica); when sampled, the promotion records a span and
// the armed recovery window gets its own span ending when the window
// elapses, so a failover trace shows exactly how long §2 held writes.
func (s *Server) Promote(tc tracing.Context, files []ReplFile, termFloor time.Duration) {
	sp := s.tracer.StartChild(tc, "failover.promote")
	if p := s.maxTermF.floor(); p > termFloor {
		termFloor = p
	}
	for _, f := range s.core.Merge(files) {
		for s.cfg.Replica.ReplicateWrite(tc, f.Path, f.Seq, f.Data) != nil {
			if !s.cfg.Replica.IsMaster() || !s.sleepUntil(s.clk.Now().Add(100*time.Millisecond)) {
				sp.EndNote("abandoned")
				return
			}
		}
		s.core.Settled(f)
	}
	window := s.core.Promote(termFloor, s.clk.Now())
	if sp.Recording() {
		sp.EndNote(fmt.Sprintf("files=%d window=%s", len(files), window))
		if window > 0 {
			winSp := s.tracer.StartChild(tc, "recovery.window")
			fire, stopTimer := s.clk.After(window)
			go func() {
				select {
				case <-fire:
					winSp.End()
				case <-s.stopped:
					stopTimer()
					winSp.EndNote("shutdown")
				}
			}()
		}
	} else {
		sp.End()
	}
}

// ReplTermFloor is the largest lease term this replica knows
// replicated or persisted — its contribution to a new master's
// recovery window.
func (s *Server) ReplTermFloor() time.Duration {
	floor := s.core.TermFloor()
	if p := s.maxTermF.floor(); p > floor {
		floor = p
	}
	return floor
}

// Demote closes the serving gate and severs every client connection so
// their sessions redial and discover the new master; the hello path
// then refuses them here. The listener stays up (this replica may be
// promoted again — through a fresh Promote, which reopens the gate)
// and lease records are left to expire on their own — the successor's
// recovery window already covers them. The gate closes BEFORE the
// sever so no hello admitted concurrently can land after its conn was
// missed by the sweep.
func (s *Server) Demote() {
	s.core.Demote()
	s.connMu.Lock()
	for nc := range s.raw {
		nc.Close()
	}
	s.connMu.Unlock()
}

// ReplicaInfo reports the replication role for the admin plane; ok is
// false on a standalone server.
func (s *Server) ReplicaInfo() (role string, master int, expiry time.Time, ok bool) {
	r := s.cfg.Replica
	if r == nil {
		return "", -1, time.Time{}, false
	}
	return r.Role(), r.MasterIndex(), r.MasterExpiry(), true
}
