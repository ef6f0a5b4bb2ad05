package server

import (
	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// This file drives the paper's §4.3 installed-files lease class over
// TCP (srvcore.ClassTable: one directory-granularity lease per client
// covering rarely-written data, renewed by a periodic O(1) broadcast and
// dropped on the first write). Every connection gets the broadcasts; a
// client learns from the first one that the class runs, and fetches the
// snapshot with TInstalled.

// ClassConfig configures the lease-class subsystem. The zero value
// disables it entirely: no broadcast is sent and TInstalled answers an
// empty class.
type ClassConfig = srvcore.ClassConfig

// classObserveRead installs the datum of one served read when it
// qualifies for the class (ClassTable.ObserveRead).
func (s *Server) classObserveRead(client core.ClientID, d vfs.Datum) {
	ct := s.core.Classes
	if ct == nil {
		return
	}
	path, err := s.store.Path(d.Node)
	if err != nil || !ct.ObserveRead(d, path, s.clk.Now()) {
		return
	}
	image, added := s.core.ClassAdd(d, path, s.clk.Now())
	if !added {
		return
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvClassPromote, Client: string(client), Datum: d})
	}
	s.shipClassImage(image)
}

// installedSnapshot answers TInstalled: the current membership plus a
// covering extension.
func (s *Server) installedSnapshot() proto.InstalledWire {
	ct := s.core.Classes
	if ct == nil {
		return proto.InstalledWire{}
	}
	return ct.Snapshot(s.clk.Now())
}

// broadcastLoop periodically renews the whole installed class with one
// O(1) frame per connected client — the §4.3 economy: the
// extension traffic is O(clients), independent of how many files each
// client caches.
func (s *Server) broadcastLoop() {
	defer s.wg.Done()
	for {
		fire, stopTimer := s.clk.After(s.cfg.Class.BroadcastEvery)
		select {
		case <-s.stopped:
			stopTimer()
			return
		case <-fire:
		}
		s.broadcastInstalled()
	}
}

// broadcastInstalled sends one broadcast-extension round. The table
// records the coverage horizon before any frame is enqueued, and the
// encoded payload is shared read-only across all connections
// (AppendPayload copies into each coalescer).
func (s *Server) broadcastInstalled() {
	ct := s.core.Classes
	if ct == nil || !s.core.Serving(s.clk.Now()) {
		return
	}
	w, ok := ct.Broadcast(s.clk.Now())
	if !ok {
		return
	}
	var e proto.Enc
	e.EncodeBroadcastExt(w)
	payload := e.Bytes()
	s.connMu.RLock()
	n := len(s.conns)
	for _, hc := range s.conns {
		hc.pushFrame(proto.TBroadcastExt, payload)
	}
	s.connMu.RUnlock()
	if n > 0 && s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvBroadcastExt, Depth: n, Term: w.Term})
	}
}

// shipClassImage pushes a membership image to the peers, best effort
// (see srvcore.Core.ClassAdd).
func (s *Server) shipClassImage(f ReplFile) {
	if r := s.cfg.Replica; r != nil && r.IsMaster() {
		_ = r.ReplicateWrite(tracing.Context{}, f.Path, f.Seq, f.Data)
	}
}

// ClassInfo is the admin plane's view of the installed class.
type ClassInfo = srvcore.ClassInfo

// ClassSnapshot reports the installed class for the admin plane; ok is
// false when the class is disabled.
func (s *Server) ClassSnapshot() (ClassInfo, bool) {
	if ct := s.core.Classes; ct != nil {
		return ct.Info(), true
	}
	return ClassInfo{}, false
}
