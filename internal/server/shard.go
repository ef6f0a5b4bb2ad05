package server

import (
	"errors"
	"fmt"
	"time"

	"leases/internal/client"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// ShardConfig places a server in a sharded deployment: the consistent-
// hash ring mapping paths to replica groups, and which group this
// server belongs to. The zero value (nil Ring) is an unsharded server:
// no ownership checks run.
type ShardConfig struct {
	// GroupID is this server's replica group on the ring.
	GroupID int
	// Ring is the ownership snapshot this server serves. Cross-shard
	// moves fence on its epoch; NOT_OWNER redirects carry it.
	Ring *shard.Ring
}

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

// handleShardMove is the destination half of a cross-shard rename: the
// source has cleared and removed the file, and the move is the move-in
// that recreates it here. It fences on the ring epoch and checks
// ownership of the destination path, then applies the move-in under the
// plan an undo runs at the source (create).
//
// An error reply tells the source nothing happened here, and the source
// restores the file. So it is sent only for a failure before the plan's
// op was shipped. Once a follower may hold it, a later promotion's merge
// can serve the file here: the failure is answered with a TShardMove,
// which the source reports as an unknown outcome and does not undo. The
// connection stays up: it is the source's one session to this group, and
// the moves behind this one on it still get their own answers.
func (c *serverConn) handleShardMove(r *request) {
	s := c.srv
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		var epoch uint64
		epoch, r.op = dec.U64(), dec.DecodeOp()
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		// Only a move-in moves: any other op would change this group's
		// namespace under a plan that cleared nothing but the parent.
		if r.op.Kind != vfs.OpCreate || r.op.Data == nil {
			c.fail(r.f.ReqID, fmt.Errorf("shard: a move carries a move-in, not op kind %d", r.op.Kind))
			return
		}
		ring := s.cfg.Shard.Ring
		if ring == nil {
			c.fail(r.f.ReqID, fmt.Errorf("server: not sharded"))
			return
		}
		if epoch != ring.Epoch {
			c.fail(r.f.ReqID, fmt.Errorf("shard: epoch mismatch (theirs %d, ours %d)", epoch, ring.Epoch))
			return
		}
		if !c.checkOwner(r.f.ReqID, r.op.Path) {
			return
		}
		// Refused before anything is replicated: the bytes must not reach
		// this group's followers under a name that holds another file.
		if _, err := s.store.Lookup(r.op.Path); err == nil {
			c.fail(r.f.ReqID, fmt.Errorf("shard: destination %s exists", r.op.Path))
			return
		}
	}
	err := c.create(r)
	switch {
	case r.parked:
	case err == nil:
		if s.obs.Enabled() {
			s.obs.Record(obs.Event{Type: obs.EvShardMove, Client: string(c.client)})
		}
		c.replyEnc(r.f.ReqID, proto.TOK, nil)
	case r.plan.Exposed():
		msg := err.Error()
		c.replyEnc(r.f.ReqID, proto.TShardMove, func(e *proto.Enc) { e.Str(msg) })
	default:
		c.fail(r.f.ReqID, err)
	}
}

// create applies r.op, a move-in: §2 clearance on the parent's binding,
// then the op replicated to a quorum — before the name exists at this
// master, so no reader here can observe it before the quorum holds its
// bytes — and the name and bytes applied in one store step. A
// create-then-write pair would expose an empty file that a concurrent
// read could lease and cache, a stale read the chaos shard-split scenario
// catches. The plan is made on the request's first pass; a parked request
// resumes it (see Server.drive).
func (c *serverConn) create(r *request) error {
	s := c.srv
	if r.step.Kind == 0 {
		parent, err := s.store.Lookup(parentOf(r.op.Path))
		if err != nil {
			return err
		}
		r.plan = s.core.Plan(c.client, vfs.Datum{Kind: vfs.DirBinding, Node: parent.ID})
		r.plan.Ship(r.op)
	}
	return s.drive(c, r)
}

// crossShardRename runs the source half of a rename whose destination
// hashes to another group, in one inter-group round trip:
//
//  1. the commit point: §2 clearance over the file's data and the old
//     parent binding (a move changes the node identity, so every cached
//     copy approves or expires), then one apply of a remove naming the
//     cleared node, which hands back the file's bytes, owner and
//     permissions — a write cleared before it moves with the file, one
//     queued behind it finds the file gone;
//  2. with that plan released, one TShardMove carries the move-in built
//     from them to the destination master, which clears the new parent
//     binding and applies it (handleShardMove). It goes out on the
//     server's mover, a client.Router over its ring: one session per
//     destination group under one client ID, dialed on the first move.
//
// No plan is held across the call: two renames crossing in opposite
// directions would each hold the binding the other's destination must
// clear, and wait on each other until the call timed out. A move the
// destination refused (an error reply, which it sends only before it
// replicates anything, or no session up to send it on) is undone here
// under the plan the destination would have run, applying the same
// move-in at the old path; if that fails too, the client is told the
// file is gone from both groups. A move lost after it was queued, or
// failed after the destination replicated it, leaves the outcome
// unknown: that is reported to the client, and the file is either at the
// destination or nowhere — closing that window needs an op log.
func (c *serverConn) crossShardRename(r *request, destGroup int) {
	if r.parked = r.inline; r.parked {
		return // a call to another group, and nothing done yet: the reader hands the request off to start over
	}
	s, f, ring := c.srv, r.f, c.srv.cfg.Shard.Ring
	if g, ok := ring.Group(destGroup); !ok || len(g.Replicas) == 0 {
		c.fail(f.ReqID, fmt.Errorf("shard: no replicas for group %d", destGroup))
		return
	}
	from, to := r.op.Path, r.op.To
	attr, err := s.store.Lookup(from)
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
	oldParent, err := s.store.Lookup(parentOf(from))
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	r.plan = s.core.Plan(c.client, vfs.Datum{Kind: vfs.FileData, Node: attr.ID}, vfs.Datum{Kind: vfs.DirBinding, Node: oldParent.ID})
	// What moves is read by the apply, behind every mutation cleared first:
	// a write, or a chmod on the parent binding. The name must still be the
	// file the plan cleared.
	r.op = vfs.Op{Kind: vfs.OpRemove, Node: attr.ID, Path: from}
	if !s.run(c, r) {
		return
	}
	r.op = vfs.Op{Kind: vfs.OpCreate, Path: to, Owner: r.res.Attr.Owner, Perm: r.res.Attr.Perm, Data: r.res.Data}

	sp := s.tracer.StartChild(r.sp.Context(), "shard.commit")
	err = s.mover.Move(ring.Epoch, r.op, shardCallTimeout)
	sp.End()
	switch {
	case err == nil:
		// The new parent lives on the destination group, whose clearance
		// already called this client's session there back.
		c.replyEnc(f.ReqID, proto.TOK, func(e *proto.Enc) { c.encodeTouched(e, oldParent.ID, 0) })
	case errors.Is(err, client.ErrRefused):
		// The request never parked (see the top), so create plans afresh.
		r.op.Path = from
		if uerr := c.create(r); uerr != nil {
			c.fail(f.ReqID, fmt.Errorf("shard: %s left this group, its move to group %d was refused (%v), and restoring it failed: %v", from, destGroup, err, uerr))
			return
		}
		if s.obs.Enabled() {
			s.obs.Record(obs.Event{Type: obs.EvShardUndo, Client: string(c.client)})
		}
		c.fail(f.ReqID, fmt.Errorf("shard: %s restored, its move to group %d failed: %v", from, destGroup, err))
	default:
		c.fail(f.ReqID, fmt.Errorf("shard: %s left this group but its move to group %d was lost: %v", from, destGroup, err))
	}
}

// shardCallTimeout bounds a move on the wall clock, from the wait for a
// session to its answer (the destination may legitimately defer for a
// full lease term waiting out holders of its parent directory).
const shardCallTimeout = 45 * time.Second
