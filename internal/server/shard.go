package server

import (
	"errors"
	"fmt"
	"time"

	"leases/internal/client"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/shard"
	"leases/internal/srvcore"
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
// plan an undo runs at the source: §2 clearance on the parent's binding,
// then the op replicated to a quorum — before the name exists at this
// master, so no reader here can observe it before the quorum holds its
// bytes — and the name and bytes applied in one store step. A
// create-then-write pair would expose an empty file that a concurrent
// read could lease and cache, a stale read the chaos shard-split scenario
// catches.
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
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		var epoch uint64
		epoch, op = dec.U64(), dec.DecodeOp()
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		// Only a move-in moves: any other op would change this group's
		// namespace under a plan that cleared nothing but the parent.
		if op.Kind != vfs.OpCreate || op.Data == nil {
			c.fail(r.f.ReqID, fmt.Errorf("shard: a move carries a move-in, not op kind %d", op.Kind))
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
		if !c.checkOwner(r.f.ReqID, op.Path) {
			return
		}
		// Refused before anything is replicated: the bytes must not reach
		// this group's followers under a name that holds another file.
		if _, err := s.store.Lookup(op.Path); err == nil {
			c.fail(r.f.ReqID, fmt.Errorf("shard: destination %s exists", op.Path))
			return
		}
	}
	err := s.advance(r, op)
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

// crossShardRename runs the source half of the rename op, whose
// destination hashes to another group, in one inter-group round trip:
//
//  1. the commit point: §2 clearance over the file's data and the old
//     parent binding (a move changes the node identity, so every cached
//     copy approves or expires), then one apply of a remove naming the
//     cleared node — the move source, which srvcore's rule refuses for a
//     directory or a writer without write access — which hands back the
//     file's bytes, owner and permissions: a write cleared before it
//     moves with the file, one queued behind it finds the file gone;
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
//
// Either plan may park; the request comes back here when it is handed
// back, with its plan's op: the move source of the commit point, or the
// undo's move-in.
func (c *serverConn) crossShardRename(r *request, op vfs.Op) {
	if r.inline {
		c.srv.handOff(r, srvcore.Step{}) // a call to another group, and nothing done yet: start over off the reader
		return
	}
	s, f, ring := c.srv, r.f, c.srv.cfg.Shard.Ring
	switch op.Kind {
	case vfs.OpCreate:
		c.undoMove(r, op)
		return
	case vfs.OpRename:
		if g, ok := ring.Group(ring.Lookup(op.To)); !ok || len(g.Replicas) == 0 {
			c.fail(f.ReqID, fmt.Errorf("shard: no replicas for group %d", ring.Lookup(op.To)))
			return
		}
		// What moves is read by the apply, behind every mutation cleared
		// first: a write, or a chmod on the parent binding. The name must
		// still be the file the plan cleared.
		op = vfs.Op{Kind: vfs.OpRemove, Path: op.Path, To: op.To}
	}
	if !s.run(c, r, op) {
		return
	}
	op = r.plan.Op()
	from, dest := op.Path, ring.Lookup(op.To)
	in := vfs.Op{Kind: vfs.OpCreate, Path: op.To, Owner: r.res.Attr.Owner, Perm: r.res.Attr.Perm, Data: r.res.Data}

	sp := s.tracer.StartChild(r.sp.Context(), "shard.commit")
	err := s.mover.Move(ring.Epoch, in, shardCallTimeout)
	sp.End()
	switch {
	case err == nil:
		// The new parent lives on the destination group, whose clearance
		// already called this client's session there back.
		c.replyEnc(f.ReqID, proto.TOK, func(e *proto.Enc) { c.encodeTouched(e, r.res.Dirs[0], 0) })
	case errors.Is(err, client.ErrRefused):
		in.Path, r.moved = from, fmt.Errorf("its move to group %d was refused: %w", dest, err)
		c.undoMove(r, in)
	default:
		c.fail(f.ReqID, fmt.Errorf("shard: %s left this group but its move to group %d was lost: %v", from, dest, err))
	}
}

// undoMove puts back, under the plan the destination would have run, a
// file whose move the destination refused (r.moved): in is the move-in
// at its old path.
func (c *serverConn) undoMove(r *request, in vfs.Op) {
	s, f := c.srv, r.f
	if err := s.advance(r, in); r.parked {
		return
	} else if err != nil {
		c.fail(f.ReqID, fmt.Errorf("shard: %s left this group, %v, and restoring it failed: %v", in.Path, r.moved, err))
		return
	}
	if s.obs.Enabled() {
		s.obs.Record(obs.Event{Type: obs.EvShardUndo, Client: string(c.client)})
	}
	c.fail(f.ReqID, fmt.Errorf("shard: %s restored, %v", in.Path, r.moved))
}

// shardCallTimeout bounds a move on the wall clock, from the wait for a
// session to its answer (the destination may legitimately defer for a
// full lease term waiting out holders of its parent directory).
const shardCallTimeout = 45 * time.Second
