package server

import (
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/srvcore"
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

// broadcastLoop periodically renews the whole installed class with one
// O(1) frame per connected client (srvcore.Machine.Broadcast) — the §4.3
// economy: the extension traffic is O(clients), independent of how many
// files each client caches. The encoded payload is shared read-only
// across connections (AppendPayload copies into each coalescer).
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
		// connMu is not held across Broadcast, whose serving check asks the
		// replica, so the count it records is the one just read.
		s.connMu.RLock()
		n := len(s.conns)
		s.connMu.RUnlock()
		if w, ok := s.m.Broadcast(n, s.clk.Now()); ok {
			var e proto.Enc
			payload := e.EncodeBroadcastExt(w).Bytes()
			s.connMu.RLock()
			for _, hc := range s.conns {
				hc.pushFrame(proto.TBroadcastExt, payload)
			}
			s.connMu.RUnlock()
		}
	}
}

// shipClassImage pushes a membership image to the peers, best effort
// (see srvcore.Machine.GrantRead).
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
