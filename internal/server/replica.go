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
	// ReplicateMaxTerm pushes a term ceiling to a quorum: Promote's one
	// raise, before the gate opens.
	ReplicateMaxTerm(d time.Duration) error
}

// ReplFile is one replicated file's state, as exchanged during a new
// master's catch-up sync.
type ReplFile = srvcore.ReplFile

// ApplyReplicated installs one replicated write pushed by the master,
// reporting whether it was actually applied (false: dropped as stale).
// See srvcore.Core.ApplyReplicated.
func (s *Server) ApplyReplicated(path string, seq uint64, data []byte) (applied bool, err error) {
	return s.core.ApplyReplicated(path, seq, data)
}

// ReplState answers a catch-up sync with the files replication wrote
// here, each at its sequence, and the class image: never the files it
// did not write. See srvcore.Core.ReplState.
func (s *Server) ReplState() []ReplFile { return s.core.ReplState() }

// PersistMaxTerm records a master's replicated term raise: this
// replica's contribution to a future promotion's floor. When this replica
// keeps its own durable max-term file the raise is persisted there too,
// so even a restart-then-promote sequence observes it.
func (s *Server) PersistMaxTerm(d time.Duration) error {
	s.core.RaiseTerm(d)
	return s.persist(d)
}

// persist raises the max-term file, when one is configured, to d.
func (s *Server) persist(d time.Duration) error {
	if s.cfg.MaxTermPath == "" {
		return nil
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return raiseMaxTerm(s.cfg.MaxTermPath, d)
}

// Promote applies the catch-up state synced from a quorum of peers,
// ships whatever the merge left unsettled to a quorum, replicates this
// server's term ceiling to a quorum, and opens the §2 recovery window
// (srvcore.Core has the merge, the settle rule and the window
// arithmetic; this replica's own floor joins the quorum's here, taken
// before the raise: the window covers what earlier masters granted).
// Serving opens only then: hellos and every plan check the core's gate,
// and no grant raises anything, since this master grants nothing past
// the ceiling the quorum now knows. If the mastership lapses first the
// gate stays closed and the next election retries the whole sequence.
// tc is the failover's trace context (the election trace from
// internal/replica); when sampled, the promotion records a span and
// the armed recovery window gets its own span ending when the window
// elapses, so a failover trace shows exactly how long §2 held writes.
func (s *Server) Promote(tc tracing.Context, files []ReplFile, termFloor time.Duration) {
	sp := s.tracer.StartChild(tc, "failover.promote")
	termFloor = max(termFloor, s.core.TermFloor())
	r := s.cfg.Replica
	// retry waits out a failed quorum round, false once this replica
	// should give the promotion up.
	retry := func() bool {
		if r.IsMaster() && s.pause(100*time.Millisecond) {
			return true
		}
		sp.EndNote("abandoned")
		return false
	}
	for _, f := range s.core.Merge(files) {
		for r.ReplicateWrite(tc, f.Path, f.Seq, f.Data) != nil {
			if !retry() {
				return
			}
		}
		s.core.Settled(f)
	}
	for r.ReplicateMaxTerm(s.ceiling) != nil {
		if !retry() {
			return
		}
	}
	s.core.RaiseTerm(s.ceiling) // Serve put it in the max-term file, if any
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

// pause waits d on the server's clock; false means the server stopped
// first.
func (s *Server) pause(d time.Duration) bool {
	fire, stopTimer := s.clk.After(d)
	defer stopTimer()
	select {
	case <-fire:
		return true
	case <-s.stopped:
		return false
	}
}

// ReplTermFloor is the largest lease term this replica knows
// replicated or persisted — its contribution to a new master's
// recovery window.
func (s *Server) ReplTermFloor() time.Duration { return s.core.TermFloor() }

// Demote closes the serving gate, severs every client connection so
// their sessions redial and discover the new master — the hello path
// then refuses them here — and fails every parked write, whose writer
// resubmits it there. The listener stays up (this replica may be
// promoted again — through a fresh Promote, which reopens the gate) and
// lease records are left to expire on their own — the successor's
// recovery window already covers them. The gate closes BEFORE the sever
// so no hello admitted concurrently can land after its conn was missed
// by the sweep.
func (s *Server) Demote() {
	s.core.Demote()
	s.connMu.Lock()
	for nc := range s.raw {
		nc.Close()
	}
	s.connMu.Unlock()
	s.perform(s.m.Demote(s.clk.Now()))
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
