package tracesim

import (
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/netsim"
	"leases/internal/sim"
	"leases/internal/vfs"
)

// simServer is the file server: the vfs store, the lease manager, write
// deferral timers, write deduplication across client retransmits, and
// the installed-files multicast loop.
type simServer struct {
	sim   *simulation
	store *vfs.Store
	mgr   *core.Manager
	inst  *core.InstalledSet

	// writers maps pending write IDs to the information needed to ack
	// the writer once the write applies.
	writers map[core.WriteID]pendingWriter
	// seenWrites dedupes retransmitted write requests: client → reqID →
	// version acked (0 while still pending).
	seenWrites map[core.ClientID]map[uint64]uint64
	// deadlineEv is the armed expiry timer, if any.
	deadlineEv *sim.Event
	deadlineAt time.Time

	down            bool
	maxLeaseRecords int
	// snapshot persists lease records for DetailedRecovery mode.
	snapshot []core.LeaseSnapshot
	// persistedMaxTerm survives crashes (the one value the paper's
	// default recovery rule requires).
	persistedMaxTerm time.Duration
	// installedExtEv is the periodic multicast loop event.
	installedExtEv *sim.Event
}

type pendingWriter struct {
	client core.ClientID
	reqID  uint64
	datum  vfs.Datum
	// queuedAt lets the run record how long the write was deferred.
	queuedAt time.Time
}

func newSimServer(s *simulation) *simServer {
	srv := &simServer{
		sim:        s,
		store:      vfs.New(clockAt(s), "srv"),
		writers:    make(map[core.WriteID]pendingWriter),
		seenWrites: make(map[core.ClientID]map[uint64]uint64),
	}
	srv.initFiles()
	srv.initManager(time.Time{})
	s.fabric.Register(serverNode, srv.handle)
	if ic := s.cfg.Installed; ic != nil {
		srv.inst = core.NewInstalledSet(ic.Term)
		for f := range s.cfg.Trace.Installed {
			srv.inst.Add(datumForFile(f))
		}
		srv.initManager(time.Time{}) // rebuild with installed set attached
		srv.scheduleInstalledExtension()
	}
	return srv
}

// clockAt adapts the engine to the vfs clock dependency.
func clockAt(s *simulation) clock.Clock { return engineClock{s} }

type engineClock struct{ s *simulation }

func (c engineClock) Now() time.Time { return c.s.engine.Now() }
func (c engineClock) After(d time.Duration) (<-chan time.Time, func() bool) {
	panic("tracesim: engine clock has no timers; use the engine")
}
func (c engineClock) Sleep(time.Duration) { panic("tracesim: engine clock cannot sleep") }

func (srv *simServer) initFiles() {
	for f := 0; f < srv.sim.cfg.Trace.Files; f++ {
		path := pathForFile(uint32(f))
		if _, err := srv.store.Create(path, "srv", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			panic(err)
		}
	}
}

func pathForFile(f uint32) string {
	// Node IDs are allocated sequentially from 2, matching datumForFile.
	return "/f" + itoa(int(f))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func (srv *simServer) initManager(recoverUntil time.Time) {
	opts := []core.ManagerOption{}
	if !recoverUntil.IsZero() {
		opts = append(opts, core.WithRecoveryWindow(recoverUntil))
	}
	if srv.inst != nil {
		opts = append(opts, core.WithInstalled(srv.inst))
	}
	srv.mgr = core.NewManager(srv.sim.cfg.Term, opts...)
}

func (srv *simServer) scheduleInstalledExtension() {
	ic := srv.sim.cfg.Installed
	var tick func()
	tick = func() {
		if !srv.down {
			now := srv.localNow()
			data := srv.inst.Extension(now)
			if len(data) > 0 {
				var to []netsim.NodeID
				for i := range srv.sim.clients {
					to = append(to, clientNode(i))
				}
				srv.sim.fabric.Multicast(serverNode, to, kindInstalledExt, installedExt{
					Data:   data,
					Term:   ic.Term,
					SentAt: now,
				})
			}
		}
		if srv.sim.engine.Now().Before(srv.sim.end) {
			srv.installedExtEv = srv.sim.engine.After(ic.Period, tick)
		}
	}
	srv.installedExtEv = srv.sim.engine.After(0, tick)
}

// localNow reads the server's (possibly drifting) clock.
func (srv *simServer) localNow() time.Time {
	return localTime(srv.sim.start, srv.sim.now(), srv.sim.cfg.ServerClockRate)
}

func (srv *simServer) handle(m netsim.Message) {
	now := srv.localNow()
	switch p := m.Payload.(type) {
	case extendReq:
		srv.handleExtend(m.From, p, now)
	case writeReq:
		srv.handleWrite(m.From, p, now)
	case approveMsg:
		srv.handleApprove(p, now)
	default:
		panic("tracesim: server received unknown payload")
	}
	srv.trackStorage()
}

func (srv *simServer) trackStorage() {
	if n := srv.mgr.LeaseCount(); n > srv.maxLeaseRecords {
		srv.maxLeaseRecords = n
	}
}

func (srv *simServer) handleExtend(from netsim.NodeID, req extendReq, now time.Time) {
	rep := extendRep{ReqID: req.ReqID}
	for _, d := range req.Data {
		g := srv.mgr.Grant(req.From, d, now)
		version, err := srv.store.Version(d)
		if err != nil {
			panic(err)
		}
		rep.Grants = append(rep.Grants, grantInfo{
			Datum:   d,
			Term:    g.Term,
			Version: version,
			Leased:  g.Leased,
		})
	}
	srv.sim.fabric.Unicast(serverNode, from, kindExtendRep, rep)
}

func (srv *simServer) handleWrite(from netsim.NodeID, req writeReq, now time.Time) {
	seen := srv.seenWrites[req.From]
	if seen == nil {
		seen = make(map[uint64]uint64)
		srv.seenWrites[req.From] = seen
	}
	if v, ok := seen[req.ReqID]; ok {
		// Retransmit. If already applied, re-ack; if still pending, the
		// writer will be acked when it applies.
		if v != 0 {
			srv.sim.fabric.Unicast(serverNode, from, kindWriteAck, writeAck{ReqID: req.ReqID, Version: v})
		}
		return
	}
	seen[req.ReqID] = 0

	disp := srv.mgr.SubmitWrite(req.From, req.Datum, now)
	if disp.Ready {
		srv.applyWriteNow(req.From, req.ReqID, req.Datum)
		return
	}
	srv.writers[disp.WriteID] = pendingWriter{
		client:   req.From,
		reqID:    req.ReqID,
		datum:    req.Datum,
		queuedAt: now,
	}
	// Ask the live leaseholders — one multicast normally (the writer's
	// own request was its implicit approval), or per-holder unicasts
	// under the ablation ("Without multicast, it would require 2(S−1)
	// messages").
	if len(disp.NeedApproval) > 0 {
		payload := approvalReq{WriteID: disp.WriteID, Datum: req.Datum}
		if srv.sim.cfg.UnicastApprovals {
			for _, c := range disp.NeedApproval {
				srv.sim.fabric.Unicast(serverNode, netsim.NodeID(c), kindApprovalReq, payload)
			}
		} else {
			var to []netsim.NodeID
			for _, c := range disp.NeedApproval {
				to = append(to, netsim.NodeID(c))
			}
			srv.sim.fabric.Multicast(serverNode, to, kindApprovalReq, payload)
		}
	}
	srv.armDeadline()
}

func (srv *simServer) handleApprove(p approveMsg, now time.Time) {
	if srv.mgr.Approve(p.From, p.WriteID, now) {
		srv.applyReady(now)
	}
}

// applyWriteNow applies an immediately-ready write and acks the writer.
func (srv *simServer) applyWriteNow(client core.ClientID, reqID uint64, d vfs.Datum) {
	attr, _, err := srv.store.WriteFile(d.Node, payloadFor(client, reqID))
	if err != nil {
		panic(err)
	}
	srv.seenWrites[client][reqID] = attr.Version
	srv.sim.writeWaits.Observe(0)
	srv.sim.fabric.Unicast(serverNode, netsim.NodeID(client), kindWriteAck, writeAck{ReqID: reqID, Version: attr.Version})
}

// applyReady drains every write the manager says may proceed.
func (srv *simServer) applyReady(now time.Time) {
	for {
		ready := srv.mgr.ReadyWrites(now)
		if len(ready) == 0 {
			break
		}
		for _, id := range ready {
			w := srv.writers[id]
			delete(srv.writers, id)
			srv.mgr.WriteApplied(id, now)
			attr, _, err := srv.store.WriteFile(w.datum.Node, payloadFor(w.client, w.reqID))
			if err != nil {
				panic(err)
			}
			srv.seenWrites[w.client][w.reqID] = attr.Version
			srv.sim.writeWaits.Observe(now.Sub(w.queuedAt))
			if srv.inst != nil {
				srv.inst.Readmit(w.datum)
			}
			srv.sim.fabric.Unicast(serverNode, netsim.NodeID(w.client), kindWriteAck, writeAck{ReqID: w.reqID, Version: attr.Version})
		}
	}
	srv.armDeadline()
}

// armDeadline keeps exactly one timer armed at the manager's earliest
// write-release deadline.
func (srv *simServer) armDeadline() {
	dl, ok := srv.mgr.NextDeadline()
	if !ok {
		if srv.deadlineEv != nil {
			srv.sim.engine.Cancel(srv.deadlineEv)
			srv.deadlineEv = nil
		}
		return
	}
	// dl is in server-clock time; convert to true (engine) time. The
	// microsecond of slack swallows float rounding in the conversion —
	// without it a drifting server clock can re-arm a timer at the same
	// virtual instant forever.
	fire := trueTime(srv.sim.start, dl.Add(time.Microsecond), srv.sim.cfg.ServerClockRate)
	if now := srv.sim.engine.Now(); fire.Before(now) {
		// The blocking lease already expired (e.g. an approval was lost
		// and the old timer fired before this write queued): drain on
		// the next engine step.
		fire = now
	}
	if srv.deadlineEv != nil {
		if srv.deadlineAt.Equal(fire) {
			return
		}
		srv.sim.engine.Cancel(srv.deadlineEv)
	}
	srv.deadlineAt = fire
	srv.deadlineEv = srv.sim.engine.At(fire, func() {
		srv.deadlineEv = nil
		if srv.down {
			return
		}
		srv.applyReady(srv.localNow())
	})
}

// payloadFor fabricates distinct file contents per write so staleness is
// observable.
func payloadFor(client core.ClientID, reqID uint64) []byte {
	return []byte(string(client) + "#" + itoa(int(reqID)))
}

// crash loses all soft state: the lease table, pending writes, dedupe
// records, timers. The vfs store persists ("writes are persistent at
// the server across a crash"), as does the maximum granted term.
func (srv *simServer) crash() {
	if srv.down {
		return
	}
	srv.down = true
	srv.persistedMaxTerm = srv.mgr.MaxTermGranted()
	if srv.sim.cfg.DetailedRecovery {
		srv.snapshot = srv.mgr.Snapshot(srv.localNow())
	}
	srv.sim.fabric.SetDown(serverNode, true)
	if srv.deadlineEv != nil {
		srv.sim.engine.Cancel(srv.deadlineEv)
		srv.deadlineEv = nil
	}
	srv.writers = make(map[core.WriteID]pendingWriter)
	srv.seenWrites = make(map[core.ClientID]map[uint64]uint64)
}

// restart rebuilds the manager. With the default rule it delays all
// writes for the persisted maximum term; with DetailedRecovery it
// restores the exact lease snapshot instead.
func (srv *simServer) restart() {
	if !srv.down {
		return
	}
	srv.down = false
	srv.sim.fabric.SetDown(serverNode, false)
	now := srv.localNow()
	if srv.sim.cfg.DetailedRecovery {
		srv.initManager(time.Time{})
		srv.mgr.Restore(srv.snapshot, now)
		srv.snapshot = nil
	} else {
		var until time.Time
		if srv.persistedMaxTerm > 0 && srv.persistedMaxTerm < core.Infinite {
			until = now.Add(srv.persistedMaxTerm)
		}
		srv.initManager(until)
	}
}
