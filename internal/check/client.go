package check

import (
	"fmt"
	"strconv"
	"time"

	"leases/internal/cache"
	"leases/internal/core"
	"leases/internal/netsim"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/sim"
	"leases/internal/vfs"
)

// maxRetries bounds at-least-once retransmission so every execution
// terminates; an op that exhausts its retries is counted GivenUp, not
// failed (§5: after a partition longer than the lease term, the client
// simply starts over).
const maxRetries = 8

// maxRedirects bounds how many NOT_MASTER redirects one op will chase
// back-to-back before falling back to the paced retry timer, so a
// confused replica set cannot trap a client in a redirect storm.
const maxRedirects = 4

type mopKind int

const (
	opReadFetch mopKind = iota
	opRenew
	opWriteOp
	opRenameOp
)

// mop is one in-flight client request.
type mop struct {
	kind  mopKind
	reqID uint64
	data  []vfs.Datum
	// renew is the renewal list the request carries, taken at its first
	// transmission (cache.Core.AppendRenewals).
	renew []vfs.Datum
	// datum/value for writes and single-datum read fetches.
	datum vfs.Datum
	value string
	// floor and seenFloor are the oracle snapshots taken when the read
	// began: the file's acked floor and this client's newest observed
	// position.
	floor, seenFloor uint64
	// group is the replica group this op is addressed to — the client's
	// home belief for the file at send time. Always 0 unsharded.
	group int
	// q is the cache's stamp of the first transmission: no grant can
	// predate it, so it anchors terms safely even for a retry's reply.
	q         cache.Req
	retries   int
	redirects int
	retryEv   *sim.Event
	// span is the op's trace root; like the TCP client it spans
	// retries, ending at the final reply or the give-up.
	span tracing.Span
}

// rootNames maps an op kind to its client root span name, mirroring the
// TCP client's taxonomy.
var rootNames = [...]string{opReadFetch: "client.read", opRenew: "client.extend", opWriteOp: "client.write", opRenameOp: "client.rename"}

// mclient is the model client: the cache core the TCP client ships
// (internal/cache), driven at the datum level by the scenario's
// operation trace over the reordering fabric. Only transport state —
// retransmission, redirects, routing beliefs — is the model's own.
type mclient struct {
	w     *world
	index int
	id    core.ClientID
	node  netsim.NodeID

	core *cache.Core

	inflight    map[uint64]*mop
	nextReq     uint64
	incarnation uint64
	down        bool
	// pfFetch is the reqID of the outstanding installed-class snapshot
	// fetch (0 when none); a reply that does not match is from an older
	// fetch round or a pre-crash incarnation and is dropped.
	pfFetch uint64
	// belief[g] is the within-group replica index this client currently
	// addresses in group g: the last replica that answered it, steered
	// by NOT_MASTER hints and rotated on timeouts. route[f] is the
	// client's belief about file f's home group, steered by NOT_OWNER
	// redirects and rename acks. Both survive client crashes, like the
	// deployment's Router state outliving a session reconnect.
	belief []int
	route  []int
}

func newMclient(w *world, index int) *mclient {
	c := &mclient{w: w, index: index, node: clientNode(index)}
	c.id = core.ClientID(c.node)
	c.belief = make([]int, w.groups())
	c.route = make([]int, w.sc.Files)
	for f := range c.route {
		c.route[f] = f % w.groups()
	}
	c.reset()
	w.fabric.Register(c.node, c.handle)
	return c
}

// reset installs fresh volatile state (boot and post-crash restart).
// BreakAllowance lives here, in the driver: the shipped core with ε = 0.
func (c *mclient) reset() {
	allowance := c.w.sc.Allowance
	if c.w.sc.Break == BreakAllowance {
		allowance = 0
	}
	c.core = cache.New(allowance)
	c.inflight = make(map[uint64]*mop)
	c.nextReq = 0
	c.pfFetch = 0
}

// fence is the stamp an op's reply is filed under. BreakFence, too, is
// the driver's: the current epoch instead of the request's.
func (c *mclient) fence(op *mop) cache.Req {
	q := op.q
	if c.w.sc.Break == BreakFence {
		q.Epoch = c.core.Begin(q.At).Epoch
	}
	return q
}

// localNow reads this client's drifting, skewed clock.
func (c *mclient) localNow() time.Time {
	return localAt(c.w.start, c.w.engine.Now(), c.w.sc.ClientRate[c.index], c.w.sc.ClientSkew[c.index])
}

func (c *mclient) allocReq() uint64 {
	c.nextReq++
	return c.incarnation<<32 | c.nextReq
}

func (c *mclient) doOp(op Op) {
	if c.down {
		return
	}
	switch op.Kind {
	case OpRead:
		c.read(op.File)
	case OpWrite:
		c.write(op.File)
	case OpRename:
		c.rename(op.File)
	case OpExtend:
		c.renew()
	}
}

func (c *mclient) read(file int) {
	d := datumForFile(file)
	floor, seen := c.w.orc.readStart(c.id, file)
	c.w.out.Reads++
	if val, ok := c.core.Contents(d, c.localNow()); ok {
		c.w.out.CacheHits++
		c.w.orc.readDone(c.id, file, string(val), floor, seen, true)
		return
	}
	c.send(&mop{kind: opReadFetch, data: []vfs.Datum{d}, datum: d, floor: floor, seenFloor: seen, group: c.route[file]})
}

// rename asks the file's owning group to move it to the other group —
// the model analogue of the Router's cross-shard rename.
func (c *mclient) rename(file int) {
	c.send(&mop{kind: opRenameOp, datum: datumForFile(file), group: c.route[file]})
}

func (c *mclient) write(file int) {
	c.w.out.Writes++
	c.send(&mop{kind: opWriteOp, datum: datumForFile(file), group: c.route[file]})
}

func (c *mclient) renew() {
	held := c.core.Held() // sorted, so batches are deterministic
	if len(held) == 0 {
		return
	}
	c.w.out.Extends++
	if c.w.groups() == 1 {
		op := &mop{kind: opRenew, data: held}
		c.send(op)
		c.transmit(op)
		return
	}
	// Sharded worlds renew per believed home group, like the Router's
	// per-group sessions: a batch never spans groups.
	byGroup := make([][]vfs.Datum, c.w.groups())
	for _, d := range held {
		g := c.route[fileForDatum(d)]
		byGroup[g] = append(byGroup[g], d)
	}
	for g, data := range byGroup {
		if len(data) == 0 {
			continue
		}
		c.send(&mop{kind: opRenew, data: data, group: g})
	}
}

// send registers the op and transmits it. A write's value derives from
// its reqID: globally unique (client · incarnation · request), so the
// oracle can identify every value's apply positions.
func (c *mclient) send(op *mop) {
	op.reqID = c.allocReq()
	op.q = c.core.Begin(c.localNow())
	if op.kind != opRenameOp {
		op.renew = c.core.AppendRenewals(nil, op.q.At)
	}
	op.span = c.w.tracer.StartRootNode(string(c.node), rootNames[op.kind])
	c.inflight[op.reqID] = op
	if op.kind == opWriteOp {
		op.value = string(c.id) + "#" + strconv.FormatUint(op.reqID, 10)
	}
	c.transmit(op)
}

func (c *mclient) transmit(op *mop) {
	target := c.w.serverNodeID(c.w.globalIdx(op.group, c.belief[op.group]))
	switch op.kind {
	case opReadFetch, opRenew:
		c.w.fabric.Unicast(c.node, target, kindExtend, extendReq{ReqID: op.reqID, From: c.id, Data: op.data, Renew: op.renew, TC: op.span.Context()})
	case opWriteOp:
		c.w.fabric.Unicast(c.node, target, kindWrite, writeReq{ReqID: op.reqID, From: c.id, Datum: op.datum, Value: op.value, Renew: op.renew, TC: op.span.Context()})
	case opRenameOp:
		c.w.fabric.Unicast(c.node, target, kindRename, renameReq{ReqID: op.reqID, From: c.id, File: fileForDatum(op.datum), TC: op.span.Context()})
	}
	op.retryEv = c.w.engine.After(c.w.retryBase()<<op.retries, func() { c.retry(op) })
}

func (c *mclient) retry(op *mop) {
	op.retryEv = nil
	if c.down || c.inflight[op.reqID] != op {
		return
	}
	if op.retries >= maxRetries {
		delete(c.inflight, op.reqID)
		c.w.out.GivenUp++
		op.span.EndNote("given-up")
		return
	}
	op.retries++
	if n := c.w.sc.Servers; n > 1 {
		// Silence may mean the believed replica is down, partitioned,
		// or mid-promotion: try the next one.
		c.belief[op.group] = (c.belief[op.group] + 1) % n
	}
	c.transmit(op)
}

func (c *mclient) handle(m netsim.Message) {
	if c.down {
		return
	}
	switch p := m.Payload.(type) {
	case extendRep:
		c.handleGrants(m, p)
	case writeAck:
		c.handleAck(m, p)
	case proto.ApprovalWire:
		c.handleApprovalPush(m, p)
	case notMasterRep:
		c.handleNotMaster(m, p)
	case notOwnerRep:
		c.handleNotOwner(p)
	case renameAck:
		c.handleRenameAck(m, p)
	case proto.BroadcastExtWire:
		c.handleBroadcast(m, p)
	case classSnap:
		c.handleClassSnap(p)
	default:
		panic(fmt.Sprintf("check: client got %T", m.Payload))
	}
}

// handleBroadcast is the §4.3 broadcast extension. A generation the
// held snapshot does not match extends nothing: fetch the snapshot from
// whoever broadcast, which is always the serving master.
func (c *mclient) handleBroadcast(m netsim.Message, bc proto.BroadcastExtWire) {
	if c.core.Broadcast(bc.Generation, bc.Term, bc.SentAt, c.localNow()) {
		return
	}
	c.pfFetch = c.allocReq()
	c.w.fabric.Unicast(c.node, m.From, kindClassFetch, classFetch{ReqID: c.pfFetch, From: c.id})
}

// handleClassSnap installs a fetched membership snapshot and applies
// its coverage. Lost fetches or replies need no retry timer: the next
// mismatching broadcast re-triggers the fetch.
func (c *mclient) handleClassSnap(sn classSnap) {
	if sn.ReqID == 0 || sn.ReqID != c.pfFetch {
		return
	}
	c.pfFetch = 0
	c.core.Snapshot(sn.Generation, sn.Term, sn.Data, sn.SentAt, c.localNow())
}

func (c *mclient) cancelRetry(op *mop) {
	if op.retryEv != nil {
		c.w.engine.Cancel(op.retryEv)
		op.retryEv = nil
	}
}

// redirect retransmits op at once after a steering reply — redirected
// clients converge in one round trip, not a backoff ladder — unless its
// redirect budget is spent: then the paced retry timer takes over.
func (c *mclient) redirect(op *mop) bool {
	if op.redirects >= maxRedirects {
		return false
	}
	op.redirects++
	c.cancelRetry(op)
	c.transmit(op)
	return true
}

// complete retires the op a final reply answers (nil for a duplicate
// reply or pre-crash residue: request IDs carry the incarnation and a
// crash empties the table) and pins belief to the replica that answered.
func (c *mclient) complete(m netsim.Message, reqID uint64) *mop {
	op := c.inflight[reqID]
	if op == nil {
		return nil
	}
	delete(c.inflight, reqID)
	c.cancelRetry(op)
	op.span.End()
	if idx := c.w.serverIndex(m.From); idx >= 0 && c.w.groupOf(idx) == op.group {
		c.belief[op.group] = c.w.replicaOf(idx)
	}
	return op
}

// handleNotMaster is the failover path: steer belief toward the
// replier's hint (or rotate when it has none) and redirect.
func (c *mclient) handleNotMaster(m netsim.Message, rep notMasterRep) {
	op := c.inflight[rep.ReqID]
	if op == nil {
		return
	}
	n := c.w.sc.Servers
	if rep.Hint >= 0 && rep.Hint < n && c.w.serverNodeID(c.w.globalIdx(op.group, rep.Hint)) != m.From {
		c.belief[op.group] = rep.Hint
	} else if sender := c.w.serverIndex(m.From); sender >= 0 && c.w.groupOf(sender) == op.group &&
		c.w.replicaOf(sender) == c.belief[op.group] && n > 1 {
		c.belief[op.group] = (c.belief[op.group] + 1) % n
	}
	c.redirect(op)
}

// handleNotOwner is the sharded routing path, the model analogue of the
// Router's NOT_OWNER steering: the refusing group names the file's
// owner, the client repairs its home belief and redirects.
func (c *mclient) handleNotOwner(rep notOwnerRep) {
	op := c.inflight[rep.ReqID]
	if op == nil {
		return
	}
	if rep.File >= 0 && rep.File < len(c.route) && rep.Owner >= 0 && rep.Owner < c.w.groups() {
		c.route[rep.File] = rep.Owner
		op.group = rep.Owner
	}
	if c.redirect(op) {
		c.w.out.Redirected++
	}
}

// handleRenameAck completes a rename: the file's home is now the group
// the ack names.
func (c *mclient) handleRenameAck(m netsim.Message, ack renameAck) {
	op := c.complete(m, ack.ReqID)
	if op == nil {
		return
	}
	c.w.out.RenamesAcked++
	if f := fileForDatum(op.datum); ack.Owner >= 0 && ack.Owner < c.w.groups() {
		c.route[f] = ack.Owner
	}
}

func (c *mclient) handleGrants(m netsim.Message, rep extendRep) {
	op := c.complete(m, rep.ReqID)
	if op == nil {
		return
	}
	// The core decides what stays: nothing if an invalidation crossed the
	// reply (it may satisfy the waiting read once), nothing older than
	// recorded (the fabric reorders replies), nothing under a refused grant.
	q, now := c.fence(op), c.localNow()
	for _, g := range rep.Grants {
		c.core.File(q, cache.Reply{
			Attr:   vfs.Attr{ID: g.Datum.Node, Version: g.Version},
			Grants: []proto.GrantWire{g.GrantWire},
			Data:   []byte(g.Value),
		}, now)
	}
	c.w.out.Renewals += len(rep.Renewed)
	c.core.FileExtension(q, rep.Renewed, now)
	c.fileRefills(q, rep.Refills, now)
	if op.kind == opReadFetch {
		for _, g := range rep.Grants {
			if g.Datum == op.datum {
				c.w.orc.readDone(c.id, fileForDatum(op.datum), g.Value, op.floor, op.seenFloor, false)
				return
			}
		}
		c.w.out.GivenUp++ // server answered without the datum: abandoned
	}
}

func (c *mclient) handleAck(m netsim.Message, ack writeAck) {
	op := c.complete(m, ack.ReqID)
	if op == nil {
		return
	}
	c.w.out.WritesAcked++
	c.w.orc.acked(c.id, fileForDatum(op.datum), op.value)
	// §3.1: the writer's copy stays valid after its own write — unless the
	// ack crossed an approval push, or a newer version is already recorded.
	q, now := c.fence(op), c.localNow()
	c.w.out.Renewals += len(ack.Renewed)
	c.core.OwnWrite(q, op.datum, vfs.Attr{Version: ack.Version}, []byte(op.value))
	c.core.FileExtension(q, ack.Renewed, now)
	c.fileRefills(q, ack.Refills, now)
}

func (c *mclient) handleApprovalPush(m netsim.Message, ar proto.ApprovalWire) {
	refill := c.core.Surrender(ar.Datum, c.localNow())
	c.w.obs.Record(obs.Event{
		Type:    obs.EvEviction,
		Client:  string(c.id),
		Datum:   ar.Datum,
		WriteID: uint64(ar.WriteID),
	})
	// Reply to whichever replica pushed the request — during a failover
	// the pusher may not be the replica this client believes in.
	c.w.fabric.Unicast(c.node, m.From, kindApprove, approveMsg{WriteID: ar.WriteID, From: c.id, Datum: ar.Datum, Refill: refill})
}

// fileRefills files the refills ending a grant or ack reply, each as a
// node-addressed read reply under the stamp q of the request it answers.
func (c *mclient) fileRefills(q cache.Req, refills []grantInfo, now time.Time) {
	c.w.out.Refills += len(refills)
	for _, g := range refills {
		c.core.File(q, cache.Reply{
			Attr:   vfs.Attr{ID: g.Datum.Node, Version: g.Version},
			Grants: []proto.GrantWire{g.GrantWire},
			Data:   []byte(g.Value),
			Refill: true,
		}, now)
	}
}

// crash loses the cache and every in-flight request.
func (c *mclient) crash() {
	if c.down {
		return
	}
	c.down = true
	c.w.fabric.SetDown(c.node, true)
	for _, op := range c.inflight {
		c.cancelRetry(op) // order is immaterial: cancelling only removes
	}
	c.inflight = make(map[uint64]*mop)
	c.w.tracer.AbandonNode(string(c.node), "crash")
}

// restart boots a fresh incarnation with an empty cache.
func (c *mclient) restart() {
	if !c.down {
		return
	}
	c.down = false
	c.incarnation++
	c.reset()
	c.w.fabric.SetDown(c.node, false)
	c.w.obs.Record(obs.Event{Type: obs.EvReconnect, Client: string(c.id)})
}
