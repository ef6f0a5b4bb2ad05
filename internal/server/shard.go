package server

import (
	"fmt"
	"net"
	"time"

	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/shard"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// ShardConfig places a server in a sharded deployment: the consistent-
// hash ring mapping paths to replica groups, and which group this
// server belongs to. The zero value (nil Ring) is an unsharded server,
// byte-for-byte the old behavior: FeatShard is not advertised and no
// ownership checks run.
type ShardConfig struct {
	// GroupID is this server's replica group on the ring.
	GroupID int
	// Ring is the ownership snapshot this server serves. Cross-shard
	// prepares fence on its epoch; NOT_OWNER redirects carry it.
	Ring *shard.Ring
}

func (sc ShardConfig) enabled() bool { return sc.Ring != nil }

// checkOwner gates a path-carrying request on ring ownership: an
// unsharded server owns everything; a sharded one refuses paths that
// hash to another group with TNotOwner carrying the owning group's ID
// and this server's ring epoch — the sharded analogue of the
// replicated deployment's TNotMaster steering.
func (c *serverConn) checkOwner(reqID uint64, path string) bool {
	s := c.srv
	ring := s.cfg.Shard.Ring
	if ring == nil {
		return true
	}
	owner := ring.Lookup(path)
	if owner == s.cfg.Shard.GroupID {
		return true
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvNotOwner, Client: string(c.client), Depth: owner})
	}
	// The structured redirect is feature-gated like the class frames: a
	// client that never advertised FeatShard gets a plain error it can
	// decode instead of a frame type it has never heard of.
	if c.feats&proto.FeatShard == 0 {
		c.fail(reqID, fmt.Errorf("server: not the owner of %s (group %d owns it)", path, owner))
		return false
	}
	c.replyEnc(reqID, proto.TNotOwner, func(e *proto.Enc) {
		e.U32(uint32(owner)).U64(ring.Epoch)
	})
	return false
}

// handleRing answers a routing-table fetch with the ring snapshot.
func (c *serverConn) handleRing(f proto.Frame) {
	ring := c.srv.cfg.Shard.Ring
	if ring == nil {
		c.fail(f.ReqID, fmt.Errorf("server: not sharded"))
		return
	}
	c.replyEnc(f.ReqID, proto.TRingRep, func(e *proto.Enc) { shard.Encode(e, ring) })
}

// handleShardPrepare is the destination half of phase one: fence on
// the ring epoch, verify ownership of the destination path, obtain §2
// clearance on the destination parent's binding (any holder of a lease
// over that directory approves or expires first), then stage the file
// invisibly. Nothing a reader can observe changes until the commit.
func (c *serverConn) handleShardPrepare(r *request) {
	s := c.srv
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		r.epoch, r.path, r.owner, r.perm, r.data = dec.U64(), dec.Str(), dec.Str(), vfs.Perm(dec.U8()), dec.Blob()
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		ring := s.cfg.Shard.Ring
		if ring == nil {
			c.fail(r.f.ReqID, fmt.Errorf("server: not sharded"))
			return
		}
		if r.epoch != ring.Epoch {
			c.fail(r.f.ReqID, fmt.Errorf("shard: epoch mismatch (theirs %d, ours %d)", r.epoch, ring.Epoch))
			return
		}
		if !c.checkOwner(r.f.ReqID, r.path) {
			return
		}
		parentAttr, err := s.store.Lookup(parentOf(r.path))
		if err != nil {
			c.fail(r.f.ReqID, err)
			return
		}
		r.plan = s.core.Plan(c.client, vfs.Datum{Kind: vfs.DirBinding, Node: parentAttr.ID})
	}
	if !s.run(c, r, func() error {
		if _, err := s.store.Lookup(r.path); err == nil {
			return fmt.Errorf("shard: destination %s exists", r.path)
		}
		s.core.Stage(r.path, srvcore.Xfer{Data: r.data, Owner: r.owner, Perm: r.perm, Epoch: r.epoch}, s.clk.Now())
		return nil
	}) {
		return
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvShardPrepare, Client: string(c.client)})
	}
	c.replyEnc(r.f.ReqID, proto.TShardPrepareRep, func(e *proto.Enc) { e.U64(r.epoch) })
}

// handleShardCommit makes a staged transfer visible: the source has
// committed its removal, so the file now exists here. Clearance on the
// destination parent binding is re-acquired — a lease granted on the
// directory between prepare and commit still gets its §2 approval
// round before the namespace changes under it.
func (c *serverConn) handleShardCommit(r *request) {
	s := c.srv
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		epoch := dec.U64()
		r.path = dec.Str()
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		st, ok := s.core.TakeStaged(r.path, epoch, s.clk.Now())
		if !ok {
			c.fail(r.f.ReqID, fmt.Errorf("shard: no staged transfer for %s at epoch %d", r.path, epoch))
			return
		}
		r.data, r.owner, r.perm = st.Data, st.Owner, st.Perm
		parentAttr, err := s.store.Lookup(parentOf(r.path))
		if err != nil {
			c.fail(r.f.ReqID, err)
			return
		}
		// The namespace is master-only (DESIGN.md §9); the bytes replicate
		// to a quorum before the local apply, exactly as a client write
		// would — BEFORE the path exists locally, so the quorum holds them
		// before any reader at this master can observe the new name at all —
		// and the name appears with its bytes in one atomic step. A
		// Create-then-WriteFile pair would expose an empty file that a
		// concurrent read could lease and cache, a stale read the chaos
		// shard-split scenario catches.
		r.plan = s.core.Plan(c.client, vfs.Datum{Kind: vfs.DirBinding, Node: parentAttr.ID})
		r.plan.Replicate(r.path, r.data)
	}
	if !s.run(c, r, func() error {
		_, err := s.store.CreateWith(r.path, r.owner, r.perm, r.data)
		return err
	}) {
		return
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvShardCommit, Client: string(c.client)})
	}
	c.replyEnc(r.f.ReqID, proto.TOK, nil)
}

// handleShardAbort discards a staged transfer (source-side failure
// before its commit point).
func (c *serverConn) handleShardAbort(f proto.Frame) {
	s := c.srv
	dec := proto.NewDec(f.Payload)
	epoch := dec.U64()
	newPath := dec.Str()
	if dec.Err != nil {
		c.fail(f.ReqID, dec.Err)
		return
	}
	s.core.AbortStaged(newPath, epoch)
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvShardAbort, Client: string(c.client)})
	}
	c.replyEnc(f.ReqID, proto.TOK, nil)
}

// crossShardRename runs the source half of the two-phase protocol for
// a rename whose destination hashes to another group:
//
//  1. prepare-on-destination: the destination master clears the
//     destination parent binding per §2 and stages the file invisibly;
//  2. commit-on-source: this master obtains §2 clearance over the old
//     parent binding AND the file's data (cross-shard moves change the
//     node identity, so cached copies must invalidate), then — unless
//     the file changed since its bytes were read for the prepare —
//     removes it: the protocol's commit point;
//  3. commit-on-destination: the staged file becomes visible.
//
// Both remote phases fence on the ring epoch. A failure before step 2
// aborts the staged entry (best-effort; it ages out regardless). A
// failure after step 2 is reported to the client: the file has left
// this shard and the destination holds the only staged copy, which a
// retried commit — or the operator — can surface; shrinking that
// window is the op log's job (ROADMAP item 1).
func (c *serverConn) crossShardRename(r *request, destGroup int) {
	if r.parked = r.inline; r.parked {
		return // a call to another group, and nothing done yet: the reader hands the request off to start over
	}
	s, f, tc, oldPath, newPath := c.srv, r.f, r.sp.Context(), r.path, r.to
	ring := s.cfg.Shard.Ring
	g, ok := ring.Group(destGroup)
	if !ok || len(g.Replicas) == 0 {
		c.fail(f.ReqID, fmt.Errorf("shard: no replicas for group %d", destGroup))
		return
	}
	attr, err := s.store.Lookup(oldPath)
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	if attr.IsDir {
		c.fail(f.ReqID, fmt.Errorf("shard: cross-shard directory rename unsupported"))
		return
	}
	if err := s.store.CheckAccess(attr.ID, string(c.client), true); err != nil {
		c.fail(f.ReqID, err)
		return
	}
	data, read, err := s.store.ReadFile(attr.ID)
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	oldParent, err := s.store.Lookup(parentOf(oldPath))
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}

	peer, err := dialGroupMaster(g, s.clk.Now)
	if err != nil {
		c.fail(f.ReqID, fmt.Errorf("shard: reaching group %d: %v", destGroup, err))
		return
	}
	defer peer.close()

	sp := s.tracer.StartChild(tc, "shard.prepare")
	err = peer.call(proto.TShardPrepare, func(e *proto.Enc) {
		e.U64(ring.Epoch).Str(newPath).Str(attr.Owner).U8(uint8(attr.Perm)).Blob(data)
	}, proto.TShardPrepareRep)
	sp.End()
	if err != nil {
		c.fail(f.ReqID, fmt.Errorf("shard: prepare on group %d: %v", destGroup, err))
		return
	}

	// Commit point: clearance over the old binding and the file data
	// (§2 — every cached copy approves or expires), then the removal.
	r.plan = s.core.Plan(c.client, vfs.Datum{Kind: vfs.FileData, Node: attr.ID}, vfs.Datum{Kind: vfs.DirBinding, Node: oldParent.ID})
	if !s.run(c, r, func() error {
		// A write that landed after the bytes were read for the prepare
		// would be lost at the destination — acknowledged, then gone.
		if now, serr := s.store.Stat(attr.ID); serr != nil || now.Version != read.Version {
			return fmt.Errorf("shard: %s changed during the rename; retry", oldPath)
		}
		_, rerr := s.store.Remove(oldPath)
		return rerr
	}) {
		// Not yet committed, and the client told why: discard the staged
		// copy (best-effort — it expires on its own if the abort is lost).
		peer.call(proto.TShardAbort, func(e *proto.Enc) {
			e.U64(ring.Epoch).Str(newPath)
		}, proto.TOK)
		return
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvShardCommit, Client: string(c.client),
			Datum: vfs.Datum{Kind: vfs.FileData, Node: attr.ID}})
	}

	sp = s.tracer.StartChild(tc, "shard.commit")
	err = peer.call(proto.TShardCommit, func(e *proto.Enc) {
		e.U64(ring.Epoch).Str(newPath)
	}, proto.TOK)
	sp.End()
	if err != nil {
		c.fail(f.ReqID, fmt.Errorf("shard: committed locally but destination commit failed: %v", err))
		return
	}
	// The new parent lives on the destination group, whose clearance
	// already called this client's session there back.
	c.replyEnc(f.ReqID, proto.TOK, func(e *proto.Enc) { c.encodeTouched(e, oldParent.ID, 0) })
}

// shardPeer is a minimal synchronous client for master-to-master
// shard calls: one connection, one outstanding request, NOT_MASTER
// steering at dial time.
type shardPeer struct {
	nc    net.Conn
	reqID uint64
}

// shardCallTimeout bounds each shard call (the destination's prepare
// may legitimately defer for a full lease term waiting out holders).
const shardCallTimeout = 45 * time.Second

// dialGroupMaster connects to the group's master, following TNotMaster
// hints the way a client's failover logic does, with a bounded number
// of redials.
func dialGroupMaster(g shard.Group, now func() time.Time) (*shardPeer, error) {
	idx := 0
	var lastErr error
	for attempt := 0; attempt < 3*len(g.Replicas); attempt++ {
		addr := g.Replicas[idx%len(g.Replicas)]
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			lastErr = err
			idx++
			continue
		}
		nc.SetDeadline(now().Add(shardCallTimeout))
		var e proto.Enc
		e.Str(fmt.Sprintf("shard-xfer:%s", nc.LocalAddr())).U64(proto.FeatShard)
		if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()}); err != nil {
			nc.Close()
			lastErr = err
			idx++
			continue
		}
		rep, err := proto.ReadFrame(nc)
		if err != nil {
			nc.Close()
			lastErr = err
			idx++
			continue
		}
		switch rep.Type {
		case proto.THelloAck:
			rep.Recycle()
			nc.SetDeadline(time.Time{})
			return &shardPeer{nc: nc, reqID: 1}, nil
		case proto.TNotMaster:
			hint := proto.NewDec(rep.Payload).I64()
			rep.Recycle()
			nc.Close()
			if hint >= 0 && int(hint) < len(g.Replicas) {
				idx = int(hint)
			} else {
				idx++
			}
			lastErr = fmt.Errorf("replica %s is not master", addr)
			// The master may still be electing; brief pause before
			// the next attempt.
			time.Sleep(200 * time.Millisecond)
		default:
			rep.Recycle()
			nc.Close()
			lastErr = fmt.Errorf("unexpected hello reply %v from %s", rep.Type, addr)
			idx++
		}
	}
	return nil, lastErr
}

// call sends one request and waits for its reply, skipping unsolicited
// pushes. A TError reply surfaces as an error; any other type than
// want fails.
func (p *shardPeer) call(t proto.MsgType, fill func(*proto.Enc), want proto.MsgType) error {
	p.reqID++
	id := p.reqID
	var e proto.Enc
	fill(&e)
	p.nc.SetDeadline(time.Now().Add(shardCallTimeout))
	defer p.nc.SetDeadline(time.Time{})
	if err := proto.WriteFrame(p.nc, proto.Frame{Type: t, ReqID: id, Payload: e.Bytes()}); err != nil {
		return err
	}
	for {
		rep, err := proto.ReadFrame(p.nc)
		if err != nil {
			return err
		}
		if rep.ReqID != id {
			rep.Recycle() // an unsolicited push or a stale frame
			continue
		}
		defer rep.Recycle()
		switch rep.Type {
		case want:
			return nil
		case proto.TError:
			return fmt.Errorf("%s", proto.NewDec(rep.Payload).Str())
		default:
			return fmt.Errorf("unexpected reply type %v", rep.Type)
		}
	}
}

func (p *shardPeer) close() { p.nc.Close() }
