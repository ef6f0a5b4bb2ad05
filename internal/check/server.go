package check

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"leases/internal/core"
	"leases/internal/netsim"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/replica"
	"leases/internal/sim"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// checkShards exercises the sharded manager's cross-shard routing
// without drowning the small model configurations.
const checkShards = 2

// maxShipRetries bounds replication-frame retransmission — like the
// deployment's master, which re-sends a frame once. A write that cannot
// reach quorum fails unacked while it still holds clearance on its
// datum, so giving up early is what keeps the datum live; the client's
// own retry ladder starts the write over.
const maxShipRetries = 2

// engineClock adapts the discrete-event engine to clock.Clock for the
// vfs store; only Now is meaningful inside the simulation.
type engineClock struct{ engine *sim.Engine }

func (c engineClock) Now() time.Time { return c.engine.Now() }
func (c engineClock) After(time.Duration) (<-chan time.Time, func() bool) {
	panic("check: After on engine clock")
}
func (c engineClock) Sleep(time.Duration) { panic("check: Sleep on engine clock") }

// planKind says which mutation a plan carries.
type planKind uint8

const (
	planWrite  planKind = iota // a client write
	planSource                 // cross-shard rename, source: commit point
	planMove                   // cross-shard rename, destination: appear
	planUndo                   // cross-shard rename, source: put a refused move back
)

// mplan is one mutation in flight at the model server: the shipped plan
// (srvcore.Plan), which the shipped machine drives, plus what this shell
// needs to perform its steps — who to answer, the round its Ship step
// rides, and its request's span.
type mplan struct {
	p    srvcore.Plan
	id   uint64
	kind planKind
	// The request: a client's write, or a transfer leg from peer.
	client   core.ClientID
	reqID    uint64
	file     int
	value    string
	renew    []vfs.Datum // a write's renewals, granted with its ack
	mut      vfs.Op      // the store change a write or a move applies
	queuedAt time.Time   // server-local, for the write-wait lens
	x        *xferState
	xm       xferMsg
	peer     netsim.NodeID
	// seq is the replication sequence the plan shipped (zero: none).
	seq uint64

	// sp is the server span of the request, tc its context (a transfer's
	// source plan runs under the rename's span instead): write.defer,
	// repl.ship and write.apply parent under it, like the TCP server's.
	sp   tracing.Span
	tc   tracing.Context
	ship *round // Ship step in flight
}

// round is one at-least-once exchange with the group's peers — a file on
// its way to a quorum (a plan's Ship step, or one a promotion must
// settle), or a promotion's sync: send goes to every peer that has not
// answered, again after each backoff, until quorum-1 have answered
// (done(nil)) or the tries run out (done(err)).
type round struct {
	got   []bool
	tries int // so far, of max
	max   int
	ev    *sim.Event
	send  func(node netsim.NodeID)
	done  func(err error)
	span  tracing.Span // repl.ship: first transmit to quorum, retries included
}

// xferState is the source master's record of one outbound cross-shard
// transfer: the §2 clearance plan runs to the commit point, then the
// move retries until the destination's master acks or refuses it.
type xferState struct {
	id      uint64
	file    int
	dest    int // destination group
	reqID   uint64
	from    core.ClientID
	move    *xferMsg // read at the commit point: set once the file has left
	retries int
	retryEv *sim.Event
	sp      tracing.Span // server.rename root, ended with the transfer
}

var (
	errNoQuorum = errors.New("check: gave up short of a quorum")
	errDropped  = errors.New("check: dropped")
	errMoved    = errors.New("check: the file is not here")
)

// mserver is the model file server: the real vfs store and the shipped
// server core (internal/srvcore — write plans, replication state and
// class table) under the model's message loop. What is the model's own
// is transport: the election pump, quorum counting and retransmission of
// a plan's Ship step, the promotion sync exchange, the rename's move
// between masters, and at-least-once dedupe. In replicated worlds
// (sc.Servers > 1) it additionally runs the real PaxosLease Machine;
// mach is nil in single-server worlds.
type mserver struct {
	w    *world
	idx  int // global server index
	node netsim.NodeID
	// group/rep split idx for sharded worlds: elections, replication
	// frames, and promotion sync all stay within the group, addressed by
	// within-group replica index rep.
	group int
	rep   int
	store *vfs.Store
	core  *srvcore.Core
	// m drives the core's plans, and wakeEv is the one timer for the
	// instant it wants ticked.
	m      *srvcore.Machine
	wakeEv *sim.Event
	// plans are the mutations in flight by serial, shipping the files
	// awaiting a quorum.
	plans    map[uint64]*mplan
	nextPlan uint64
	shipping map[replAck]*round
	// seen dedupes at-least-once requests per client: reqID → applied
	// version, 0 while in flight (lost on crash, so duplicates across a
	// crash re-apply — the at-least-once behaviour the oracle tolerates).
	seen map[core.ClientID]map[uint64]uint64
	// refills are, per client, the files it approved a write on while
	// reading them and asked back for; its next grant or ack reply
	// carries them (the TCP server's per-connection list).
	refills map[core.ClientID][]mrefill

	down bool
	// floor survives crashes, like the durable max-term file in
	// internal/server (§5 recovery rule).
	floor time.Duration
	// classBase makes class generations world-unique per core
	// incarnation and reign — the model analogue of the deployment's
	// connection-scoped snapshots (a TCP client refetches after any
	// reconnect).
	classBase uint64
	classEv   *sim.Event

	// Replication state (Servers > 1 only).
	mach      *replica.Machine
	machGen   int64
	machEv    *sim.Event
	wasMaster bool
	// The promotion in progress: its sync round (replies are told apart by
	// syncID) and what it has gathered, then the files it is settling.
	syncID    uint64
	sync      *round
	syncFiles []srvcore.ReplFile
	syncFloor time.Duration
	settling  []*round

	// Sharding state (Groups > 1 only). peerBelief[g] is the replica this
	// server currently believes is group g's master, rotated when retries
	// go unanswered; xfers tracks outbound transfers by file.
	peerBelief []int
	xfers      map[int]*xferState
}

func filePath(f int) string { return "/f" + strconv.Itoa(f) }

// rootBinding is the parent binding every model file lives under.
var rootBinding = vfs.Datum{Kind: vfs.DirBinding, Node: vfs.RootID}

func newMserver(w *world, idx int) *mserver {
	srv := &mserver{
		w:     w,
		idx:   idx,
		group: w.groupOf(idx),
		rep:   w.replicaOf(idx),
	}
	srv.node = w.serverNodeID(idx)
	srv.store = vfs.New(engineClock{w.engine}, string(srv.node))
	for f := 0; f < w.sc.Files; f++ {
		val := "init#" + strconv.Itoa(f)
		seed := vfs.Op{Kind: vfs.OpCreate, Path: filePath(f), Owner: "srv", Perm: vfs.DefaultPerm | vfs.WorldWrite, Data: []byte(val)}
		if _, err := srv.store.Apply(seed); err != nil {
			panic(fmt.Sprintf("check: seeding %s: %v", filePath(f), err))
		}
		if idx == 0 {
			w.orc.initialApplied(f, val)
		}
	}
	if w.sc.Servers > 1 {
		// Genesis machines skip the quiet period: a fresh cluster has no
		// prior promises to contradict, so the first election may start
		// at t0. Restarts go through the honest quiet period.
		srv.mach = srv.newMach(w.start.Add(-w.sc.Term))
	}
	if w.groups() > 1 {
		srv.peerBelief = make([]int, w.groups())
	}
	srv.boot()
	srv.armMach()
	w.fabric.Register(srv.node, srv.handle)
	srv.armClass()
	return srv
}

func (srv *mserver) newMach(start time.Time) *replica.Machine {
	return replica.NewMachine(replica.Config{
		ID:        srv.rep,
		N:         srv.w.sc.Servers,
		Term:      srv.w.sc.Term,
		Allowance: srv.w.sc.Allowance,
		Seed:      mix(srv.w.sc.Seed, 0xe1ec7^int64(srv.idx)<<8^srv.machGen<<20),
	}, start)
}

// coreConfig is the configuration every server core of sc is built from.
func coreConfig(sc Scenario, store *vfs.Store) srvcore.Config {
	cfg := srvcore.Config{
		Store: store, Owner: "srv", Term: sc.Term, Shards: checkShards,
	}
	if sc.Installed {
		cfg.Class = srvcore.ClassConfig{
			InstalledDirs: []string{"/"}, InstalledTerm: sc.InstalledTerm, BroadcastEvery: sc.BroadcastEvery,
			QuietAfterWrite: sc.QuietAfterWrite,
		}.WithDefaults()
	}
	return cfg
}

// boot installs a fresh server core over the (durable) store, at
// construction and after a crash. What the previous incarnation kept on
// disk carries over: the store, each file's replication sequence, and
// the max-term floor — the configured ceiling, which boot makes durable
// as the TCP server's Serve does. A standalone server re-enters the §5
// recovery window at once; a replica imposes it at its next promotion.
// The model's replicas know the ceiling from configuration, where the
// deployment's master replicates it to a quorum before it serves.
func (srv *mserver) boot() {
	sc := srv.w.sc
	old := srv.core
	cfg := coreConfig(sc, srv.store)
	ceiling := cfg.Ceiling()
	if sc.Break == BreakTermFloor {
		ceiling = sc.Term
	}
	srv.floor = max(srv.floor, ceiling)
	switch {
	case srv.mach != nil:
		// Mastership is judged on the server's clock, whatever instant a
		// (sabotaged) driver claims while stepping a plan.
		cfg.Master = func(time.Time) bool { return srv.mach.IsMaster(srv.localNow()) }
	case old != nil && srv.floor > 0 && srv.floor < core.Infinite:
		cfg.RecoverUntil = srv.localNow().Add(srv.floor)
	}
	srv.core = srvcore.New(cfg)
	if srv.mach != nil {
		srv.core.RaiseTerm(srv.floor)
		if old != nil {
			for _, f := range old.ReplState() {
				srv.core.ApplyReplicated(f.Path, f.Seq, f.Data)
			}
		}
	}
	srv.m = srvcore.NewMachine(srv.core, 0, srv.w.tracer, srv.w.obs, string(srv.node))
	srv.plans = make(map[uint64]*mplan)
	srv.shipping = make(map[replAck]*round)
	srv.seen = make(map[core.ClientID]map[uint64]uint64)
	srv.refills = make(map[core.ClientID][]mrefill)
	srv.xfers = make(map[int]*xferState)
	srv.newClassBase()
}

func (srv *mserver) newClassBase() {
	srv.w.classReigns++
	srv.classBase = srv.w.classReigns << 32
}

func (srv *mserver) rate() float64       { return srv.w.sc.ServerRates[srv.idx] }
func (srv *mserver) skew() time.Duration { return srv.w.sc.ServerSkews[srv.idx] }

// localNow reads the server's drifting clock.
func (srv *mserver) localNow() time.Time {
	return localAt(srv.w.start, srv.w.engine.Now(), srv.rate(), srv.skew())
}

// at schedules fn for when the server's clock has strictly passed local.
func (srv *mserver) at(local time.Time, fn func()) *sim.Event {
	at := trueAt(srv.w.start, local.Add(time.Microsecond), srv.rate(), srv.skew())
	if at.Before(srv.w.engine.Now()) {
		at = srv.w.engine.Now()
	}
	return srv.w.engine.At(at, fn)
}

func (srv *mserver) cancel(ev **sim.Event) {
	if *ev != nil {
		srv.w.engine.Cancel(*ev)
		*ev = nil
	}
}

// peerNode names replica r of group g on the fabric.
func (srv *mserver) peerNode(g, r int) netsim.NodeID {
	return srv.w.serverNodeID(srv.w.globalIdx(g, r))
}

// eachPeer calls fn for every other replica of this server's group.
func (srv *mserver) eachPeer(fn func(r int, node netsim.NodeID)) {
	for r := 0; r < srv.w.sc.Servers; r++ {
		if r != srv.rep {
			fn(r, srv.peerNode(srv.group, r))
		}
	}
}

// quorumPeers is how many peer acknowledgements (excluding the master
// itself) a shipped write or promotion sync needs.
func (srv *mserver) quorumPeers() int { return srv.w.sc.Servers / 2 }

func (srv *mserver) backoff(retries int) time.Duration {
	return srv.w.retryBase() << uint(min(retries, 6))
}

// ---- election machine pump ----

func (srv *mserver) armMach() {
	if srv.mach == nil || srv.down {
		return
	}
	srv.cancel(&srv.machEv)
	at := trueAt(srv.w.start, srv.mach.NextWake(), srv.rate(), srv.skew())
	if at.After(srv.w.machStop) {
		return
	}
	if at.Before(srv.w.engine.Now()) {
		at = srv.w.engine.Now()
	}
	srv.machEv = srv.w.engine.At(at, srv.onMachWake)
}

func (srv *mserver) onMachWake() {
	srv.machEv = nil
	if srv.down {
		return
	}
	srv.sendElect(srv.mach.Tick(srv.localNow()))
	srv.machChanged()
}

func (srv *mserver) sendElect(msgs []replica.Msg) {
	for _, m := range msgs {
		if m.To != srv.rep {
			srv.w.fabric.Unicast(srv.node, srv.peerNode(srv.group, m.To), kindElect, electMsg{M: m})
		}
	}
}

// machChanged runs after every machine interaction: it detects this
// replica's own promotion and demotion edges and rearms the wake timer.
func (srv *mserver) machChanged() {
	if is := srv.mach.IsMaster(srv.localNow()); is != srv.wasMaster {
		srv.wasMaster = is
		// Either edge closes the gate and fails what was in flight: a
		// promotion first severs whatever an earlier mastership era left.
		srv.demote()
		if is {
			srv.w.obs.Record(obs.Event{Type: obs.EvElected, Replica: srv.idx})
			srv.beginSync()
		} else {
			srv.w.obs.Record(obs.Event{Type: obs.EvDemoted, Replica: srv.idx})
		}
	}
	srv.armMach()
}

// demote closes the core's serving gate and fails every plan in flight:
// the machine its parked ones, the gate the ones on a Ship round. Lease
// records are left to expire on their own, as in the deployment.
func (srv *mserver) demote() {
	srv.effects(srv.m.Demote(srv.localNow()))
	srv.endPromotion()
	// A transfer inside its clearance plan fails with the plan; one past
	// the commit point keeps sending its move, as the deployment's does.
	for _, id := range sortedKeys(srv.plans) {
		if op := srv.plans[id]; op != nil && op.ship != nil {
			srv.endRound(op.ship, srvcore.ErrNotMaster)
		}
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ---- rounds: promotion sync, and shipping a file to a quorum ----

func (srv *mserver) startRound(max int, send func(netsim.NodeID), done func(error)) *round {
	rd := &round{got: make([]bool, srv.w.sc.Servers), max: max, send: send, done: done}
	srv.sendRound(rd)
	return rd
}

func (srv *mserver) sendRound(rd *round) {
	srv.eachPeer(func(r int, node netsim.NodeID) {
		if !rd.got[r] {
			rd.send(node)
		}
	})
	rd.ev = srv.w.engine.After(srv.backoff(rd.tries), func() {
		rd.ev = nil
		if srv.down || rd.done == nil {
			return
		}
		if rd.tries++; rd.tries > rd.max {
			srv.endRound(rd, errNoQuorum)
			return
		}
		srv.sendRound(rd)
	})
}

// answered records peer from's answer to rd, ending the round on the
// one that makes a quorum; it reports whether the answer was news.
func (srv *mserver) answered(rd *round, from int) bool {
	if rd == nil || rd.done == nil || from < 0 || from >= len(rd.got) || rd.got[from] {
		return false
	}
	rd.got[from] = true
	n := 0
	for _, g := range rd.got {
		if g {
			n++
		}
	}
	if n >= srv.quorumPeers() {
		srv.endRound(rd, nil)
	}
	return true
}

// endRound ends rd (nil, or ended: a no-op), telling its owner unless
// the owner itself drops it (errDropped).
func (srv *mserver) endRound(rd *round, err error) {
	if rd == nil || rd.done == nil {
		return
	}
	done := rd.done
	rd.done = nil
	srv.cancel(&rd.ev)
	if err == nil {
		rd.span.EndNote("quorum")
	} else {
		rd.span.EndNote("dropped")
	}
	if err != errDropped {
		done(err)
	}
}

// beginSync starts a promotion: a fresh master merges quorum-1 peer
// snapshots before serving, so every write that was ever acked (it
// reached a quorum) is in its store.
func (srv *mserver) beginSync() {
	srv.endPromotion()
	srv.syncID++
	srv.syncFiles, srv.syncFloor = nil, srv.termFloor()
	req := syncReq{From: srv.rep, ReqID: srv.syncID}
	srv.sync = srv.startRound(maxRetries,
		func(node netsim.NodeID) { srv.w.fabric.Unicast(srv.node, node, kindSyncReq, req) },
		func(err error) {
			if err == nil {
				srv.settle()
			} // else stranded: serves nothing until its lease lapses
		})
}

// endPromotion abandons whatever promotion is in progress.
func (srv *mserver) endPromotion() {
	srv.endRound(srv.sync, errDropped)
	for _, rd := range srv.settling {
		srv.endRound(rd, errDropped)
	}
	srv.sync, srv.settling = nil, nil
}

// termFloor is this replica's contribution to a new master's recovery
// window: what it knows replicated, and what it kept on disk.
func (srv *mserver) termFloor() time.Duration { return max(srv.core.TermFloor(), srv.floor) }

func (srv *mserver) handleSyncRep(p syncRep) {
	if p.ReqID == srv.syncID && srv.sync != nil && srv.sync.done != nil && !srv.sync.got[p.From] {
		srv.syncFiles = append(srv.syncFiles, p.Files...)
		srv.syncFloor = max(srv.syncFloor, p.Floor)
		srv.answered(srv.sync, p.From)
	}
}

// settle merges the synced snapshots into the core (per file, the
// highest sequence wins). Whatever that leaves on fewer than a quorum is
// shipped to one before this master serves it; a file that cannot settle
// sends the promotion back to its sync.
func (srv *mserver) settle() {
	if !srv.mach.IsMaster(srv.localNow()) {
		return
	}
	unsettled := srv.core.Merge(srv.syncFiles)
	left := len(unsettled)
	for _, f := range unsettled {
		srv.settling = append(srv.settling, srv.ship(f, tracing.Context{}, func(err error) {
			if err != nil {
				srv.beginSync()
				return
			}
			srv.core.Settled(f)
			if left--; left == 0 {
				srv.promote()
			}
		}))
	}
	if left == 0 {
		srv.promote()
	}
}

// ship starts the round that carries f to a quorum. Every (re)transmit
// is stamped with the current ballot: a frame sent just before this
// master renewed its own lease would otherwise be rejected by peers that
// already accepted the renewal's ballot.
func (srv *mserver) ship(f srvcore.ReplFile, tc tracing.Context, done func(error)) *round {
	key := replAck{Path: f.Path, Seq: f.Seq}
	rd := srv.startRound(maxShipRetries, func(node netsim.NodeID) {
		fr := replFrame{From: srv.rep, Ballot: srv.mach.MasterBallot(srv.localNow()), File: f}
		srv.w.fabric.Unicast(srv.node, node, kindReplWrite, fr)
	}, func(err error) {
		delete(srv.shipping, key)
		done(err)
	})
	rd.span = srv.w.tracer.StartChildNode(string(srv.node), tc, "repl.ship")
	srv.shipping[key] = rd
	return rd
}

// handleReplFrame is the follower side: fenced by the acceptor's own
// election state, then the core's sequence guard decides. Only a real
// apply is acknowledged — a stale drop means this replica does not hold
// those bytes.
func (srv *mserver) handleReplFrame(p replFrame) {
	if srv.mach == nil || !srv.mach.AcceptsMasterFrame(srv.localNow(), p.From, p.Ballot) {
		return
	}
	if applied, _ := srv.core.ApplyReplicated(p.File.Path, p.File.Seq, p.File.Data); applied {
		srv.w.fabric.Unicast(srv.node, srv.peerNode(srv.group, p.From), kindReplAck,
			replAck{From: srv.rep, Path: p.File.Path, Seq: p.File.Seq})
	}
}

// promote opens the recovery window and the gate over settled state.
func (srv *mserver) promote() {
	srv.endPromotion()
	srv.newClassBase()
	srv.core.Promote(srv.syncFloor, srv.localNow())
	// A write that was shipped but never applied by its master may have
	// survived on a follower and take effect now.
	for f := 0; f < srv.w.sc.Files; f++ {
		if srv.present(f) {
			srv.w.orc.surfaced(f, srv.read(f))
		}
	}
}

// read returns file f's current contents.
func (srv *mserver) read(f int) string {
	data, _, err := srv.store.ReadFile(datumForFile(f).Node)
	if err != nil {
		panic(fmt.Sprintf("check: read file %d: %v", f, err))
	}
	return string(data)
}

// ---- the plan shell ----

// begin registers a plan and hands it to the machine.
func (srv *mserver) begin(op *mplan) {
	srv.nextPlan++
	op.id = srv.nextPlan
	op.queuedAt = srv.localNow()
	if op.sp.Recording() {
		op.tc = op.sp.Context()
	}
	srv.plans[op.id] = op
	srv.run(op, srv.m.Begin(&op.p, op.tc, op.queuedAt))
}

// run performs the steps the machine hands op, which this shell holds,
// until op parks, waits on its Ship round — whose end runs it on — or
// ends; and after each, what else the input handed out.
func (srv *mserver) run(op *mplan, e srvcore.Effects) {
	for e.Step.Kind != 0 {
		var next srvcore.Effects
		now := srv.localNow()
		switch st := e.Step; st.Kind {
		case srvcore.Wait, srvcore.Approval:
			next = srv.m.Park(&op.p, op, st, now)
		case srvcore.Demoted:
			next = srv.m.Next(&op.p, now) // the model replicates no class image
		case srvcore.Ship:
			if op.kind == planWrite && !srv.present(op.file) {
				next = srv.m.Report(&op.p, errMoved, now) // the file left this group while it waited
				break
			}
			if op.kind == planWrite {
				srv.w.orc.shipped(op.file, op.value)
			}
			op.seq = st.Seq
			op.ship = srv.ship(srvcore.ReplFile{Path: st.Path, Seq: st.Seq, Data: st.Data}, op.tc, func(err error) {
				op.ship = nil
				srv.run(op, srv.m.Report(&op.p, err, srv.localNow()))
			})
		case srvcore.Apply:
			next = srv.m.Report(&op.p, srv.apply(op, now), now)
		default: // Done, Fail
			srv.finish(op, st.Err)
		}
		srv.effects(e)
		e = next
	}
	srv.effects(e)
}

// effects performs what the machine handed out for its parked plans: it
// asks a parked write's holders for approval, and runs each plan past its
// wait on. A scenario's sabotage acts here, on the code both shells run:
// it ticks the machine at once to the instant a wait ends, or approves for
// the holders a write asks.
func (srv *mserver) effects(e srvcore.Effects) {
	if len(e.Parked) > 0 {
		srv.rearm()
	}
	for _, st := range e.Parked {
		op, br := st.Owner.(*mplan), srv.w.sc.Break
		switch st.Kind {
		case srvcore.Wait:
			// BreakQuiet's second half (restart has the first): a freshly
			// promoted master serves without the §5 recovery window.
			if br == BreakClassHorizon && st.Cause == srvcore.ClassHorizon || br == BreakQuiet && st.Cause == srvcore.RecoveryWindow {
				srv.effects(srv.m.Tick(st.Until))
			}
		case srvcore.Approval:
			if br == BreakWriteDefer && op.kind == planWrite || br == BreakRenameOrder && op.kind == planSource {
				for _, h := range st.Holders {
					_, e := srv.m.Approve(h, st.WriteID, srv.localNow())
					srv.effects(e)
				}
			} else if len(st.Holders) > 0 {
				targets := make([]netsim.NodeID, 0, len(st.Holders))
				for _, holder := range st.Holders {
					targets = append(targets, netsim.NodeID(holder))
				}
				srv.w.fabric.Multicast(srv.node, targets, kindApprovalReq, proto.ApprovalWire{WriteID: st.WriteID, Datum: st.Datum})
			}
		default:
			srv.run(op, srvcore.Effects{Step: st})
		}
	}
}

// rearm keeps the server's one wake timer at the instant the machine
// next wants ticked.
func (srv *mserver) rearm() {
	srv.cancel(&srv.wakeEv)
	if wake := srv.m.NextWake(); !wake.IsZero() {
		srv.wakeEv = srv.at(wake, func() {
			srv.wakeEv = nil
			if !srv.down {
				e := srv.m.Tick(srv.localNow())
				srv.rearm()
				srv.effects(e)
			}
		})
	}
}

// apply performs a plan's store change: the one thing per mutation kind
// that is not order. A write whose file left this group while it waited
// fails, as the deployment's store refuses a write to a removed file.
func (srv *mserver) apply(op *mplan, now time.Time) error {
	applySp := srv.w.tracer.StartChildNode(string(srv.node), op.tc, "write.apply")
	defer applySp.End()
	switch op.kind {
	case planWrite:
		if !srv.present(op.file) {
			return errMoved
		}
		res, err := srv.store.Apply(op.mut)
		if err != nil {
			panic(fmt.Sprintf("check: apply write to file %d: %v", op.file, err))
		}
		srv.w.orc.applied(op.file, op.value)
		version := srv.versionAt(op.file, op.seq, res.Attr.Version)
		srv.seen[op.client][op.reqID] = version
		wait := max(now.Sub(op.queuedAt), 0)
		srv.w.out.MaxWriteWait = max(srv.w.out.MaxWriteWait, wait)
		srv.w.obs.Record(obs.Event{
			Type: obs.EvWriteApply, Client: string(op.client), Datum: datumForFile(op.file),
			Shard: srv.core.Leases().ShardFor(datumForFile(op.file)), Wait: wait,
		})
	case planSource:
		// The commit point. The bytes are read here, behind every write
		// cleared before it, so the move carries them.
		x := op.x
		x.move = &xferMsg{XferID: x.id, File: x.file, Value: srv.read(x.file), Version: srv.fileVersion(x.file)}
		srv.w.shards[srv.group].owned[x.file] = false
		srv.w.home[x.file] = x.dest
		srv.w.out.Renames++
	case planUndo:
		// The file is home again with the bytes that moved, as the
		// deployment's undo re-creates it: a promotion while it was away
		// may have merged a write here that never applied.
		if _, err := srv.store.Apply(op.mut); err != nil {
			panic(fmt.Sprintf("check: restore file %d: %v", op.file, err))
		}
		srv.w.shards[srv.group].owned[op.file] = true
		srv.w.home[op.file] = srv.group
	case planMove:
		res, err := srv.store.Apply(op.mut)
		if err != nil {
			panic(fmt.Sprintf("check: commit moved file %d: %v", op.file, err))
		}
		// Versions continue from the source's, so clients' version guards
		// stay comparable across the move.
		sh := srv.w.shards[srv.group]
		sh.base[op.file] = 0
		sh.base[op.file] = int64(op.xm.Version+1) - int64(srv.versionAt(op.file, op.seq, res.Attr.Version))
		sh.owned[op.file], sh.lastXfer[op.file] = true, op.xm.XferID
	}
	return nil
}

// finish ends a plan: the requester hears of a success, and a failure
// releases the dedupe marker so a retransmit can start over at
// whichever master then serves.
func (srv *mserver) finish(op *mplan, err error) {
	delete(srv.plans, op.id)
	srv.endRound(op.ship, errDropped)
	note := ""
	if err != nil {
		note = "dropped"
	}
	switch op.kind {
	case planWrite:
		if err == nil {
			srv.w.fabric.Unicast(srv.node, netsim.NodeID(op.client), kindAck, writeAck{
				ReqID: op.reqID, Version: srv.seen[op.client][op.reqID], Renewed: srv.renew(op.client, op.renew),
				Refills: srv.takeRefills(op.client, datumForFile(op.file)),
			})
		} else if m := srv.seen[op.client]; m[op.reqID] == 0 {
			delete(m, op.reqID)
		}
	case planSource:
		if x := op.x; srv.xfers[x.file] == x {
			if err == nil {
				srv.sendMove(x)
			} else {
				srv.endXfer(x, "clearance "+err.Error())
			}
		}
	case planUndo:
		if x, end := op.x, "refused: restore dropped"; srv.xfers[x.file] == x {
			if err == nil { // home again: the client's retransmit starts over
				x.move, end = nil, "refused: restored"
			}
			srv.endXfer(x, end)
		}
	case planMove:
		if sh := srv.w.shards[srv.group]; err == nil {
			srv.w.fabric.Unicast(srv.node, op.peer, kindXferMoved, op.xm)
		} else if !op.p.Exposed() && sh.lastXfer[op.file] < op.xm.XferID {
			// Failed before its ship: the source puts the file back, and no
			// copy of the move may apply later (none could before: this was
			// the group's master until the demotion that failed the plan).
			sh.lastXfer[op.file] = op.xm.XferID
			srv.w.fabric.Unicast(srv.node, op.peer, kindXferRefused, op.xm)
		}
	}
	op.sp.EndNote(note)
}

// ---- cross-shard transfers (sharded worlds) ----

// owns reports whether file f's name hashes to this server's group (the
// model's ring: it flips at the source's commit point); present whether
// the file exists in the group's namespace — between the source's commit
// point and the destination's apply it exists nowhere. Both are
// group-durable world state: the model probes the ORDERING of clearance,
// transfer and routing, not the namespace's durability (ROADMAP item 1).
func (srv *mserver) owns(f int) bool { return srv.w.groups() <= 1 || srv.w.home[f] == srv.group }

func (srv *mserver) present(f int) bool {
	return srv.w.groups() <= 1 || srv.w.shards[srv.group].owned[f]
}

func (srv *mserver) notOwner(to netsim.NodeID, reqID uint64, f int) {
	srv.w.fabric.Unicast(srv.node, to, kindNotOwner, notOwnerRep{ReqID: reqID, File: f, Owner: srv.w.home[f]})
}

// routed gates a client request for file f on ownership, redirecting
// when redirect is set; a file in flight toward this group is met with
// silence (it does not exist yet), and the retry ladder re-asks.
func (srv *mserver) routed(from netsim.NodeID, reqID uint64, f int, redirect bool) bool {
	if !srv.owns(f) && redirect {
		srv.notOwner(from, reqID, f)
	}
	return srv.owns(f) && srv.present(f)
}

// versionAt is the client-facing version of file f held at replication
// sequence seq (replicated worlds: store versions diverge across
// replicas, sequences do not) or store version storeVer, continued from
// wherever the file moved in from.
func (srv *mserver) versionAt(f int, seq, storeVer uint64) uint64 {
	v := storeVer
	if srv.mach != nil {
		v = seq
	}
	if srv.w.groups() > 1 {
		v = uint64(int64(v) + srv.w.shards[srv.group].base[f])
	}
	return v
}

func (srv *mserver) fileVersion(f int) uint64 {
	v, err := srv.store.Version(datumForFile(f))
	if err != nil {
		panic(fmt.Sprintf("check: version of file %d: %v", f, err))
	}
	return srv.versionAt(f, srv.core.Seq(filePath(f)), v)
}

// dedupe reports whether (client, reqID) was seen before, re-acking a
// completed request through reack; one still in flight is met with
// silence (its completion acks it).
func (srv *mserver) dedupe(client core.ClientID, reqID uint64, reack func(version uint64)) bool {
	version, dup := srv.seen[client][reqID]
	if dup && version > 0 {
		reack(version)
	}
	return dup
}

func (srv *mserver) markSeen(client core.ClientID, reqID, version uint64) {
	if srv.seen[client] == nil {
		srv.seen[client] = make(map[uint64]uint64)
	}
	srv.seen[client][reqID] = version
}

// handleRename runs at the source group's serving master: dedupe,
// ownership check, then the move — §2 clearance of this group's own
// leases on the file and the commit point, then the move leg to the
// destination group, which creates the file.
func (srv *mserver) handleRename(from netsim.NodeID, req renameReq) {
	f := req.File
	if srv.dedupe(req.From, req.ReqID, func(uint64) {
		srv.w.fabric.Unicast(srv.node, from, kindRenameAck, renameAck{ReqID: req.ReqID, Owner: srv.w.home[f]})
	}) {
		return
	}
	// A move of this file already in flight (another client's rename) is
	// met with silence; the retry ladder re-asks after it lands.
	if !srv.routed(from, req.ReqID, f, true) || srv.xfers[f] != nil {
		return
	}
	srv.markSeen(req.From, req.ReqID, 0)
	srv.w.nextXfer++
	x := &xferState{
		id: srv.w.nextXfer, file: f, dest: (srv.group + 1) % srv.w.groups(), reqID: req.ReqID, from: req.From,
		sp: srv.w.tracer.StartChildNode(string(srv.node), req.TC, "server.rename"),
	}
	srv.xfers[f] = x
	// The move behaves like a §2 write on the file: every conflicting
	// leaseholder approves or expires before ownership transfers.
	op := &mplan{kind: planSource, file: f, x: x, client: core.ClientID(fmt.Sprintf("xfer-%d", x.id)), tc: x.sp.Context()}
	op.p = srv.core.Plan(op.client, datumForFile(f), rootBinding)
	srv.begin(op)
}

// sendMove (re)transmits a transfer's move to the believed destination
// master, rotating to the next replica when retries go unanswered:
// silence may mean that one is down or mid-promotion.
func (srv *mserver) sendMove(x *xferState) {
	target := srv.peerNode(x.dest, srv.peerBelief[x.dest])
	srv.w.fabric.Unicast(srv.node, target, kindXferMove, *x.move)
	x.retryEv = srv.w.engine.After(srv.backoff(x.retries), func() {
		x.retryEv = nil
		if srv.down || srv.xfers[x.file] != x {
			return
		}
		if x.retries++; x.retries > maxRetries {
			srv.endXfer(x, "move given-up")
			return
		}
		srv.peerBelief[x.dest] = (srv.peerBelief[x.dest] + 1) % srv.w.sc.Servers
		srv.sendMove(x)
	})
}

// endXfer retires an outbound transfer. Before the commit point
// ownership never moved, so the file simply stays home and the pending
// dedupe marker is released: the client's retransmit restarts the move.
// After it the file has left, and only this transfer's move can make it
// appear at the destination.
func (srv *mserver) endXfer(x *xferState, note string) {
	srv.cancel(&x.retryEv)
	delete(srv.xfers, x.file)
	if m := srv.seen[x.from]; x.move == nil && m[x.reqID] == 0 {
		delete(m, x.reqID)
	}
	x.sp.EndNote(note)
}

// handleXfer runs the transfer legs that arrive from the other group.
func (srv *mserver) handleXfer(m netsim.Message, p xferMsg) {
	switch m.Kind {
	case kindXferMove:
		// Destination side: only a serving master answers; silence makes
		// the source's retry ladder rotate replicas. The move is deduped on
		// XferID: one applied here is re-acknowledged, an older or refused
		// one or one still in flight is met with silence.
		if !srv.servingMaster() {
			return
		}
		if sh := srv.w.shards[srv.group]; sh.lastXfer[p.File] >= p.XferID {
			if sh.owned[p.File] && sh.lastXfer[p.File] == p.XferID {
				srv.w.fabric.Unicast(srv.node, m.From, kindXferMoved, p)
			}
			return
		}
		for _, op := range srv.plans {
			if op.kind == planMove && op.xm.XferID == p.XferID {
				return
			}
		}
		op := &mplan{kind: planMove, file: p.File, xm: p, peer: m.From, client: core.ClientID(m.From), mut: vfs.Op{Kind: vfs.OpWrite, Node: datumForFile(p.File).Node, Path: filePath(p.File), Data: []byte(p.Value)}}
		op.p = srv.core.Plan(op.client, rootBinding)
		// The bytes replicate to a quorum before the name appears, as a write:
		// the model's files exist in every group (ownership is groupShard's).
		op.p.Ship(op.mut)
		srv.begin(op)
	case kindXferRefused:
		// Source side: the undo runs the plan the destination would have
		// run (a nil retry timer: it already is).
		x := srv.xfers[p.File]
		if x == nil || x.id != p.XferID || x.move == nil || x.retryEv == nil {
			return
		}
		srv.cancel(&x.retryEv)
		op := &mplan{kind: planUndo, file: x.file, x: x, client: core.ClientID(fmt.Sprintf("xfer-%d", x.id)), tc: x.sp.Context(),
			mut: vfs.Op{Kind: vfs.OpWrite, Node: datumForFile(x.file).Node, Path: filePath(x.file), Data: []byte(x.move.Value)}}
		op.p = srv.core.Plan(op.client, rootBinding)
		op.p.Ship(op.mut)
		srv.begin(op)
	case kindXferMoved:
		x := srv.xfers[p.File]
		if x == nil || x.id != p.XferID || x.move == nil {
			return
		}
		srv.markSeen(x.from, x.reqID, 1) // done marker, for at-least-once re-acks
		srv.endXfer(x, fmt.Sprintf("moved to group %d", x.dest))
		srv.w.fabric.Unicast(srv.node, netsim.NodeID(x.from), kindRenameAck, renameAck{ReqID: x.reqID, Owner: x.dest})
	}
}

// ---- installed class (§4.3) ----

// armClass keeps the periodic broadcast timer running until the
// world's quiesce bound (shared with the election machines) so the
// engine drains.
func (srv *mserver) armClass() {
	if srv.core.Classes == nil || srv.down {
		return
	}
	srv.cancel(&srv.classEv)
	at := srv.w.engine.Now().Add(srv.w.sc.BroadcastEvery)
	if at.After(srv.w.machStop) {
		return
	}
	srv.classEv = srv.w.engine.At(at, func() {
		srv.classEv = nil
		if srv.down {
			return
		}
		// One §4.3 broadcast extension; the table records the coverage
		// horizon before the frames leave.
		if !srv.servingMaster() {
			srv.armClass()
			return
		}
		if bc, ok := srv.core.Classes.Broadcast(srv.localNow()); ok {
			targets := make([]netsim.NodeID, 0, len(srv.w.clients))
			for _, c := range srv.w.clients {
				targets = append(targets, c.node)
			}
			bc.Generation += srv.classBase
			srv.w.fabric.Multicast(srv.node, targets, kindBroadcast, bc)
			srv.w.obs.Record(obs.Event{Type: obs.EvBroadcastExt, Depth: len(targets)})
		}
		srv.armClass()
	})
}

// handleClassFetch serves the membership snapshot. A non-serving
// replica stays silent: broadcasts only ever come from the live
// master, so the client's next mismatching broadcast re-aims the
// fetch there.
func (srv *mserver) handleClassFetch(from netsim.NodeID, p classFetch) {
	if srv.core.Classes == nil || !srv.servingMaster() {
		return
	}
	sn := srv.core.Classes.Snapshot(srv.localNow())
	sn.Generation += srv.classBase
	srv.w.fabric.Unicast(srv.node, from, kindClassSnap, classSnap{ReqID: p.ReqID, InstalledWire: sn})
}

// ---- client-facing handlers ----

func (srv *mserver) handle(m netsim.Message) {
	if srv.down {
		return
	}
	switch p := m.Payload.(type) {
	case extendReq:
		if srv.gateClient(m.From, p.ReqID) {
			srv.handleExtend(m.From, p)
		}
	case writeReq:
		if srv.gateClient(m.From, p.ReqID) {
			srv.handleWrite(m.From, p)
		}
	case renameReq:
		if srv.gateClient(m.From, p.ReqID) {
			srv.handleRename(m.From, p)
		}
	case xferMsg:
		srv.handleXfer(m, p)
	case approveMsg:
		if srv.servingMaster() { // else: approvals for a reign this replica no longer runs
			srv.handleApprove(p)
		}
	case electMsg:
		if srv.mach != nil {
			srv.sendElect(srv.mach.HandleMessage(srv.localNow(), p.M))
			srv.machChanged()
		}
	case replFrame:
		srv.handleReplFrame(p)
	case replAck:
		srv.answered(srv.shipping[replAck{Path: p.Path, Seq: p.Seq}], p.From)
	case syncReq:
		srv.w.fabric.Unicast(srv.node, m.From, kindSyncRep,
			syncRep{From: srv.rep, ReqID: p.ReqID, Files: srv.core.ReplState(), Floor: srv.termFloor()})
	case syncRep:
		srv.handleSyncRep(p)
	case classFetch:
		srv.handleClassFetch(m.From, p)
	default:
		panic(fmt.Sprintf("check: server got %T", m.Payload))
	}
}

func (srv *mserver) servingMaster() bool { return srv.core.Serving(srv.localNow()) }

// gateClient is the replica gate: a non-master refuses with a redirect
// hint; a master still syncing stays silent (the client's retry lands
// a round trip later, when sync has almost certainly finished).
func (srv *mserver) gateClient(from netsim.NodeID, reqID uint64) bool {
	if srv.mach == nil {
		return true
	}
	now := srv.localNow()
	if !srv.mach.IsMaster(now) {
		owner, live := srv.mach.Master(now)
		hint := -1
		if live && owner != srv.rep {
			hint = owner
		}
		srv.w.fabric.Unicast(srv.node, from, kindNotMaster, notMasterRep{ReqID: reqID, Hint: hint})
		return false
	}
	return srv.core.Serving(now)
}

func (srv *mserver) handleExtend(from netsim.NodeID, req extendReq) {
	now := srv.localNow()
	sp := srv.w.tracer.StartChildNode(string(srv.node), req.TC, "server.extend")
	defer sp.End()
	rep := extendRep{ReqID: req.ReqID}
	for _, d := range req.Data {
		f := fileForDatum(d)
		// A single-datum fetch is a routed read: redirect it to the owning
		// group. Batched renewals silently drop files that moved away; the
		// client's lease lapses and its next read re-routes.
		if !srv.routed(from, req.ReqID, f, len(req.Data) == 1) {
			if len(req.Data) == 1 {
				return
			}
			continue
		}
		// While a write holds clearance on the datum the grant is refused:
		// the value is served usable-once.
		g := srv.core.Leases().Grant(req.From, d, now)
		rep.Grants = append(rep.Grants, grantInfo{
			GrantWire: proto.GrantWire{Datum: d, Term: g.Term, Version: srv.fileVersion(f), Leased: g.Leased},
			Value:     srv.read(f),
		})
		srv.w.obs.Record(obs.Event{
			Type: obs.EvGrant, Client: string(req.From), Datum: d, Shard: srv.core.Leases().ShardFor(d), Term: g.Term,
		})
		// A read may install its file in the class; the class term is
		// durable from boot.
		if ct := srv.core.Classes; ct != nil && ct.ObserveRead(d, filePath(f), now) {
			if _, added := srv.core.ClassAdd(d, filePath(f), now); added {
				srv.w.obs.Record(obs.Event{Type: obs.EvClassPromote, Client: string(req.From), Datum: d})
			}
		}
	}
	rep.Renewed = srv.renew(req.From, req.Renew)
	rep.Refills = srv.takeRefills(req.From, req.Data...)
	srv.w.fabric.Unicast(srv.node, from, kindGrant, rep)
}

// mrefill is one file a client asked back for (approveMsg.Refill) and
// when. Under BreakRefillEarly it also holds the file as it was then.
type mrefill struct {
	d       vfs.Datum
	at      time.Time
	value   string
	version uint64
}

// takeRefills grants client the files it asked back for, each read at
// the granted version, as the TCP server's takeRefills does: the entry
// for a file the reply itself carries (own) is dropped; an entry whose
// grant is refused (the write that recalled it is still pending) stays
// for a later reply; one a term old, or whose file left this group, is
// dropped.
func (srv *mserver) takeRefills(client core.ClientID, own ...vfs.Datum) []grantInfo {
	pending := srv.refills[client]
	if len(pending) == 0 {
		return nil
	}
	now := srv.localNow()
	var out []grantInfo
	keep := pending[:0]
	for _, p := range pending {
		f := fileForDatum(p.d)
		if slices.Contains(own, p.d) || now.Sub(p.at) >= srv.core.Leases().MaxTermGranted() || !srv.owns(f) || !srv.present(f) {
			continue
		}
		g := srv.core.Leases().Grant(client, p.d, now)
		srv.w.obs.Record(obs.Event{
			Type: obs.EvGrant, Client: string(client), Datum: p.d, Shard: srv.core.Leases().ShardFor(p.d), Term: g.Term,
		})
		if !g.Leased {
			keep = append(keep, p)
			continue
		}
		value, version := srv.read(f), srv.fileVersion(f)
		if srv.w.sc.Break == BreakRefillEarly {
			value, version = p.value, p.version // the file as it was at the approval
		}
		out = append(out, grantInfo{GrantWire: proto.GrantWire{Datum: p.d, Term: g.Term, Version: version, Leased: true}, Value: value})
	}
	srv.refills[client] = keep
	return out
}

// renew grants the renewals a read or write carried, as the TCP server
// grants a TExtend batch; a file that moved away is left to lapse.
func (srv *mserver) renew(client core.ClientID, data []vfs.Datum) []proto.GrantWire {
	var out []proto.GrantWire
	now := srv.localNow()
	for _, d := range data {
		if f := fileForDatum(d); srv.owns(f) && srv.present(f) {
			g := srv.core.Leases().Grant(client, d, now)
			out = append(out, proto.GrantWire{Datum: d, Term: g.Term, Version: srv.fileVersion(f), Leased: g.Leased})
			srv.w.obs.Record(obs.Event{
				Type: obs.EvExtend, Client: string(client), Datum: d, Shard: srv.core.Leases().ShardFor(d), Term: g.Term,
			})
		}
	}
	return out
}

func (srv *mserver) handleWrite(from netsim.NodeID, req writeReq) {
	// At-least-once retransmit: re-ack an applied write. Ownership is
	// checked after dedupe: a write applied here just before the file
	// moved away must still re-ack its retransmits.
	f := fileForDatum(req.Datum)
	if srv.dedupe(req.From, req.ReqID, func(version uint64) {
		srv.w.fabric.Unicast(srv.node, from, kindAck, writeAck{
			ReqID: req.ReqID, Version: version, Renewed: srv.renew(req.From, req.Renew), Refills: srv.takeRefills(req.From, req.Datum),
		})
	}) || !srv.routed(from, req.ReqID, f, true) {
		return
	}
	srv.markSeen(req.From, req.ReqID, 0)
	op := &mplan{
		kind: planWrite, client: req.From, reqID: req.ReqID, file: f, value: req.Value, renew: req.Renew, sp: srv.w.tracer.StartChildNode(string(srv.node), req.TC, "server.write"),
		mut: vfs.Op{Kind: vfs.OpWrite, Node: req.Datum.Node, Path: filePath(f), Data: []byte(req.Value)},
	}
	op.p = srv.core.Plan(req.From, req.Datum)
	op.p.Ship(op.mut)
	srv.begin(op)
}

func (srv *mserver) handleApprove(ap approveMsg) {
	now := srv.localNow()
	if ap.Refill {
		srv.askRefill(ap.From, ap.Datum, now)
	}
	ready, e := srv.m.Approve(ap.From, ap.WriteID, now)
	if ready {
		srv.w.obs.Record(obs.Event{Type: obs.EvApprove, Client: string(ap.From), WriteID: uint64(ap.WriteID)})
	}
	srv.effects(e)
}

// askRefill puts d on client's refill list, or restamps it there.
// BreakRefillEarly builds the refill now, before the write applies.
func (srv *mserver) askRefill(client core.ClientID, d vfs.Datum, now time.Time) {
	p := mrefill{d: d, at: now}
	if f := fileForDatum(d); srv.w.sc.Break == BreakRefillEarly && srv.present(f) {
		p.value, p.version = srv.read(f), srv.fileVersion(f)
	}
	list := srv.refills[client]
	for i := range list {
		if list[i].d == d {
			list[i] = p
			return
		}
	}
	srv.refills[client] = append(list, p)
}

// crash loses all volatile server state — the core with its lease
// manager, plans in flight, the dedupe table, the election machine's
// promises — but not the store, the per-file sequences or the max-term
// floor, which boot carries over.
func (srv *mserver) crash() {
	if srv.down {
		return
	}
	srv.down = true
	srv.w.fabric.SetDown(srv.node, true)
	srv.cancel(&srv.classEv)
	srv.cancel(&srv.machEv)
	srv.cancel(&srv.wakeEv)
	// Plans, rounds and transfers die with the process: their timers find
	// them ended, or gone from the tables boot replaces. Their spans are
	// swept here.
	if srv.sync != nil {
		srv.sync.done = nil
	}
	for _, rd := range srv.shipping {
		rd.done = nil
	}
	srv.sync, srv.settling, srv.wasMaster = nil, nil, false
	srv.w.tracer.AbandonNode(string(srv.node), "crash")
}

// restart brings the server back on a fresh core (see boot). In
// replicated worlds the election machine re-enters its quiet period —
// unless BreakQuiet sabotages exactly that.
func (srv *mserver) restart() {
	if !srv.down {
		return
	}
	srv.down = false
	srv.w.fabric.SetDown(srv.node, false)
	srv.boot()
	srv.armClass()
	if srv.mach == nil {
		return
	}
	if now := srv.localNow(); srv.w.sc.Break == BreakQuiet {
		// Sabotage: rejoin elections immediately, with amnesia about
		// the promises the previous incarnation made. Two amnesiac
		// acceptors can then elect a second master inside the first
		// one's live lease — the diskless split brain.
		srv.machGen++
		srv.mach = srv.newMach(now.Add(-srv.w.sc.Term))
	} else {
		srv.mach.Restart(now)
	}
	srv.armMach()
}
