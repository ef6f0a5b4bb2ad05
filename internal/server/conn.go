package server

import (
	"fmt"
	"net"
	"sync"
	"time"

	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// serverSpanNames precomputes per-request span names so a traced
// dispatch never builds a string on the hot path.
var serverSpanNames = func() map[proto.MsgType]string {
	m := make(map[proto.MsgType]string)
	for _, t := range []proto.MsgType{
		proto.TLookup, proto.TRead, proto.TWrite, proto.TExtend,
		proto.TRelease, proto.TReadDir, proto.TStat, proto.TCreate,
		proto.TMkdir, proto.TRemove, proto.TRename, proto.TSetPerm,
	} {
		m[t] = "server." + t.String()
	}
	return m
}()

func serverSpanName(t proto.MsgType) string {
	if n, ok := serverSpanNames[t]; ok {
		return n
	}
	return "server.op"
}

// serverConn is one client connection. All outbound frames — replies
// from the reader and from parked requests, and unsolicited pushes —
// funnel through the write coalescer, which batches whatever accumulates
// while a flush syscall is in flight, or while the reader still has
// requests buffered, into the next one. Handlers never touch the
// transport directly.
type serverConn struct {
	srv    *Server
	nc     net.Conn
	co     *proto.Coalescer
	client core.ClientID
	closed sync.Once
	// pushes feeds the connection's push sender: one long-lived
	// goroutine appends pushes (approval requests, broadcast
	// extensions) to the coalescer in arrival order, so a coalescer
	// stalled on backpressure blocks that one goroutine instead of
	// accumulating one per push. serveConn closes the channel after
	// deregistering the conn (pushApproval/pushFrame are only reached
	// through s.conns under connMu, which serializes against the
	// deregistration), so a send never races the close.
	pushes chan connPush
	// refills are the files this client asked back for (TApprove); the
	// next reply the reader sends to a TRead or TWrite carries them. Only
	// the reader touches the list.
	refills srvcore.Refills
}

// connPush is one queued unsolicited frame: an approval request, or a
// pre-encoded payload (broadcast extension) shared read-only across
// connections.
type connPush struct {
	t        proto.MsgType
	approval proto.ApprovalWire
	payload  []byte
}

// request is one frame being served, run to completion by the goroutine
// that read it. It is a value: a request that must wait is copied — into
// the plan machine's table (srvcore.Machine) while its plan waits on a
// lease or a window, to a goroutine of its own while it waits on a quorum
// round or another shard group — and whoever takes the copy up enters the
// same handler again. A mutation finds its plan here, which holds its op,
// and goes on from the step the plan was handed back at; a request handed
// off before doing anything starts over.
type request struct {
	c      *serverConn
	f      proto.Frame  // recycled when the request ends
	sp     tracing.Span // the dispatch span, when the frame carried a sampled context
	began  time.Time    // for the op-latency histogram, when observed
	inline bool         // the connection's reader is running it, and must not wait
	parked bool         // it has to: this copy of the request is done with
	// A mutation: its plan, the step it goes on from (zero: from the
	// start) and what applying the plan's op returned.
	plan  srvcore.Plan
	step  srvcore.Step
	res   vfs.Result
	renew []vfs.Datum // a write's renewals, granted with its reply
	// moved is why another group refused a cross-shard rename's move,
	// while the undo runs.
	moved error
}

// pushQueue bounds the per-connection approval push queue; see
// pushApproval for the overflow policy.
const pushQueue = 1024

// helloTimeout bounds the wait for a new connection's hello: what a
// client allows for its whole handshake (client.Config.DialTimeout's
// default). It runs on the wall clock, like every socket deadline.
const helloTimeout = 5 * time.Second

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.raw, nc)
		s.connMu.Unlock()
	}()
	c := &serverConn{srv: s, nc: nc}
	c.co = proto.NewCoalescer(nc)
	c.co.Stats = s.wire
	if s.obs.Enabled() {
		c.co.OnFlush = s.obs.ObserveFlush
		c.co.OnStall = func(depth int) {
			s.obs.Record(obs.Event{
				Type: obs.EvQueueFull, Client: string(c.client), Depth: depth,
			})
		}
	}
	// A failed flush closes the transport so the read loop notices; the
	// hook must not Close the coalescer itself (it runs under the flush
	// leadership Close waits out).
	c.co.OnError = func(error) { c.close() }
	// Defer order (LIFO): the coalescer drains pending replies while the
	// conn is still open, then the conn closes.
	defer c.close()
	defer c.co.Close()
	c.pushes = make(chan connPush, pushQueue)
	var pushWG sync.WaitGroup
	pushWG.Add(1)
	go func() {
		defer pushWG.Done()
		for p := range c.pushes {
			// A false Append means the coalescer is dead: keep draining
			// so close never races a blocked sender.
			if p.t == proto.TApprovalReq {
				a := p.approval
				c.co.Append(proto.TApprovalReq, 0, func(e *proto.Enc) { e.EncodeApproval(a) })
			} else {
				c.co.AppendPayload(p.t, 0, tracing.Context{}, p.payload)
			}
		}
	}()
	// LIFO: the queue closes before the coalescer does, so queued pushes
	// still reach the final flush; it closes after the conns-map
	// deregistration (deferred below, post-hello), so no pushApproval
	// can be sending concurrently.
	defer pushWG.Wait()
	defer close(c.pushes)
	// The frame reader pulls whole batches per read syscall — a
	// pipelined client's burst decodes from one fill — and its grown
	// buffer is recycled across connections.
	fr := proto.GetReader(nc)
	fr.Stats = s.wire
	defer proto.PutReader(fr)

	// The first frame must be THello, identifying the client for lease
	// records and approval pushes; bytes after the ID are ignored. A
	// connection that sends none within helloTimeout is closed, so a
	// silent peer does not hold its goroutines and buffer until Stop.
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	f, err := fr.Next()
	if err != nil || f.Type != proto.THello {
		return
	}
	nc.SetReadDeadline(time.Time{})
	id := core.ClientID(proto.NewDec(f.Payload).Str())
	if id == "" {
		c.fail(f.ReqID, fmt.Errorf("bad hello"))
		return
	}
	// A replica that does not hold the master lease — or holds it but
	// has not finished promoting (catch-up sync + recovery window; see
	// Server.serving) — refuses the session outright, carrying its
	// master belief as a redirect hint; the conn then closes (the
	// deferred coalescer Close drains the reply) and the client's
	// failover logic redials toward the hinted replica, retrying here
	// once promotion completes.
	if r := s.cfg.Replica; r != nil && !s.core.Serving(s.clk.Now()) {
		hint := int64(r.MasterIndex())
		c.replyEnc(f.ReqID, proto.TNotMaster, func(e *proto.Enc) { e.I64(hint) })
		f.Recycle()
		return
	}
	c.client = id
	s.connMu.Lock()
	if old, ok := s.conns[id]; ok {
		old.close()
	}
	s.conns[id] = c
	s.connMu.Unlock()
	// The hello is idempotent: a re-hello with the same ID (a client
	// session reconnecting) replaces the dead conn while the client's
	// lease records — keyed by ID, not connection — survive untouched.
	// The ack is the server's boot ID, so the client can tell a restart
	// from a transient fault.
	c.replyEnc(f.ReqID, proto.THelloAck, func(e *proto.Enc) { e.U64(s.boot) })
	f.Recycle()

	defer func() {
		s.connMu.Lock()
		if s.conns[id] == c {
			delete(s.conns, id)
		}
		s.connMu.Unlock()
	}()

	held := false
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		// While whole requests are already buffered the reader holds the
		// flush: a burst's replies leave in one write, a lone frame's at once.
		more := fr.Whole()
		if more && !held {
			c.co.Hold(true)
		}
		// A request that must wait leaves the reader (request): it blocks
		// itself alone, and the TApprove frames behind it are still read.
		if f.Type == proto.TApprove {
			c.handleApprove(f)
			f.Recycle()
		} else {
			r := request{c: c, f: f, inline: true}
			c.serve(&r)
		}
		if held && !more {
			c.co.Hold(false)
		}
		held = more
	}
}

func (c *serverConn) close() {
	c.closed.Do(func() { c.nc.Close() })
}

// replyEnc encodes a reply directly into the coalescer's pending
// buffer: fill appends the payload in place (nil: none), at no
// allocation and no copy between encode and flush. A false Append means
// the connection already failed: the frame is dropped, as a write
// against the dead socket would have been.
func (c *serverConn) replyEnc(reqID uint64, t proto.MsgType, fill func(*proto.Enc)) {
	c.co.Append(t, reqID, fill)
}

// pushApproval sends an unsolicited approval request. Callers may hold
// s.connMu, and Append can block on coalescer backpressure, so the
// enqueue hands the push to the connection's sender goroutine without
// blocking: if the queue is full behind a stalled coalescer the push
// is dropped — the deferred write then waits out the holder's lease
// term, the protocol's fault path (§2) — rather than holding a server
// lock across the stall or spawning an unbounded goroutine per push.
func (c *serverConn) pushApproval(a proto.ApprovalWire) {
	c.push(connPush{t: proto.TApprovalReq, approval: a})
}

// pushFrame enqueues a pre-encoded unsolicited frame (a broadcast
// extension); payload is shared read-only across connections and
// copied into the coalescer by the sender.
func (c *serverConn) pushFrame(t proto.MsgType, payload []byte) {
	c.push(connPush{t: t, payload: payload})
}

func (c *serverConn) push(p connPush) {
	select {
	case c.pushes <- p:
	default:
		if s := c.srv; s.obs.Enabled() {
			s.obs.Record(obs.Event{
				Type: obs.EvQueueFull, Client: string(c.client), Depth: pushQueue,
			})
		}
	}
}

func (c *serverConn) fail(reqID uint64, err error) {
	msg := err.Error()
	c.replyEnc(reqID, proto.TError, func(e *proto.Enc) { e.Str(msg) })
}

// serve runs a request's handler and, unless it parked, what follows its
// reply. The op-latency histogram covers decode through reply, including
// any write deferral — what a client would see minus the network — and so
// does the dispatch span of a sampled frame, which parents the approval
// fan-out, apply and replication spans downstream: both start on the
// reader and end wherever the request does.
func (c *serverConn) serve(r *request) {
	s := c.srv
	if r.inline && r.f.Trace.Valid() {
		r.sp = s.tracer.StartChild(r.f.Trace, serverSpanName(r.f.Type))
	}
	if r.inline && s.obs.Enabled() {
		r.began = s.clk.Now()
	}
	c.dispatch(r)
	if r.parked {
		return
	}
	if o := s.obs; o.Enabled() {
		o.ObserveOp(r.f.Type.String(), s.clk.Now().Sub(r.began))
	}
	r.sp.End()
	r.f.Recycle() // handlers decode with copying Dec methods: nothing outlives the frame
}

func (c *serverConn) dispatch(r *request) {
	f := r.f
	switch f.Type {
	case proto.TLookup:
		c.handleLookup(f)
	case proto.TRead:
		c.handleRead(f)
	case proto.TWrite:
		c.handleWrite(r)
	case proto.TExtend:
		c.handleExtend(f)
	case proto.TRelease:
		c.handleRelease(f)
	case proto.TReadDir:
		c.handleReadDir(f)
	case proto.TStat:
		c.handleStat(f)
	case proto.TCreate, proto.TMkdir:
		c.handleCreate(r)
	case proto.TRemove:
		c.handleRemove(r)
	case proto.TRename:
		c.handleRename(r)
	case proto.TSetPerm:
		c.handleSetPerm(r)
	case proto.TInstalled:
		c.handleInstalled(f)
	case proto.TRing:
		c.handleRing(f)
	case proto.TShardMove:
		c.handleShardMove(r)
	default:
		c.fail(f.ReqID, fmt.Errorf("server: unknown message type %d", f.Type))
	}
}

// version is d's version in the store, which a grant goes out with: read
// after the grant, so a write that slipped in before it shows.
func (s *Server) version(d vfs.Datum) uint64 {
	v, _ := s.store.Version(d)
	return v
}

// handleInstalled answers a TInstalled class-snapshot fetch.
func (c *serverConn) handleInstalled(f proto.Frame) {
	d := proto.NewDec(f.Payload)
	_ = d.U64() // the client's current generation; reserved
	w := c.srv.m.Installed(c.srv.clk.Now())
	c.replyEnc(f.ReqID, proto.TInstalledRep, func(e *proto.Enc) { e.EncodeInstalled(w) })
}

// served is the grant on a datum served to this client
// (srvcore.Machine.GrantRead) at the store's version; a class image the
// read changed ships to the peers.
func (c *serverConn) served(d vfs.Datum) proto.GrantWire {
	s := c.srv
	g, image, changed := s.m.GrantRead(c.client, d, s.clk.Now())
	if changed {
		s.shipClassImage(image)
	}
	g.Version = s.version(d)
	return g
}

// resolve walks path once and grants a binding lease on every directory
// the walk traversed, so the client can repeat the whole open locally
// (§2: the cache "must also hold the name-to-file binding and
// permission information, and it needs a lease over this
// information"). The root's own attributes live in its own binding,
// which is what a lookup of "/" is granted. A directory that changed
// between the walk and its grant comes back unleased: its edge is good
// for this open but must not be cached. The grants are appended to
// grants, the caller's stack for a path of ordinary depth.
func (c *serverConn) resolve(path string, grants []proto.GrantWire) ([]vfs.Edge, vfs.Attr, []proto.GrantWire, error) {
	chain, attr, err := c.srv.store.Resolve(path)
	if err != nil {
		return nil, vfs.Attr{}, nil, err
	}
	for _, e := range chain {
		g := c.served(vfs.Datum{Kind: vfs.DirBinding, Node: e.Dir})
		g.Leased = g.Leased && g.Version == e.Version
		grants = append(grants, g)
	}
	if len(chain) == 0 {
		grants = append(grants, c.served(vfs.Datum{Kind: vfs.DirBinding, Node: attr.ID}))
	}
	return chain, attr, grants, nil
}

func (c *serverConn) handleLookup(f proto.Frame) {
	d := proto.NewDec(f.Payload)
	path := d.Str()
	if d.Err != nil {
		c.fail(f.ReqID, d.Err)
		return
	}
	if !c.checkOwner(f.ReqID, path) {
		return
	}
	var buf [8]proto.GrantWire
	chain, attr, grants, err := c.resolve(path, buf[:0])
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	c.replyEnc(f.ReqID, proto.TLookupRep, func(e *proto.Enc) {
		e.Attr(attr).EncodeChain(chain).EncodeGrants(grants)
	})
}

func (c *serverConn) handleRead(f proto.Frame) {
	d := proto.NewDec(f.Payload)
	node := vfs.NodeID(d.U64())
	path := d.Str()
	renew := d.DecodeData()
	if d.Err != nil {
		c.fail(f.ReqID, d.Err)
		return
	}
	s := c.srv
	var chain []vfs.Edge
	var buf [8]proto.GrantWire // a path this deep, and the file, allocate no list
	grants := buf[:0]
	if node == 0 {
		// Path-addressed: the lookup folded into the read, owner-gated
		// like any other path operation.
		if !c.checkOwner(f.ReqID, path) {
			return
		}
		var rattr vfs.Attr
		var err error
		if chain, rattr, grants, err = c.resolve(path, grants); err != nil {
			c.fail(f.ReqID, err)
			return
		}
		node = rattr.ID
	}
	if err := s.store.CheckAccess(node, string(c.client), false); err != nil {
		c.fail(f.ReqID, err)
		return
	}
	data, attr, err := s.store.ReadFile(node)
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	grant := c.served(vfs.Datum{Kind: vfs.FileData, Node: node})
	// Re-read under the granted version if a write slipped between the
	// read and the grant, so data and version always agree.
	if grant.Version != attr.Version {
		data, attr, err = s.store.ReadFile(node)
		if err != nil {
			c.fail(f.ReqID, err)
			return
		}
		grant.Version = attr.Version
	}
	grants = append(grants, grant)
	renewed := s.m.Renew(c.client, renew, s.clk.Now(), s.version)
	// A read never parks: this is the connection's reader.
	refills := c.takeRefills(vfs.Datum{Kind: vfs.FileData, Node: node}, proto.ReadRepRoom(attr, len(chain), len(grants), len(data), len(renewed)))
	c.replyEnc(f.ReqID, proto.TReadRep, func(e *proto.Enc) {
		e.Attr(attr).EncodeChain(chain).EncodeGrants(grants).Blob(data).EncodeGrants(renewed).EncodeRefills(refills)
	})
}

func (c *serverConn) handleWrite(r *request) {
	s := c.srv
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		op = vfs.Op{Kind: vfs.OpWrite, Node: vfs.NodeID(dec.U64()), Data: dec.Blob()}
		r.renew = dec.DecodeData()
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
	}
	if s.run(c, r, op) {
		// Renewed after the apply, so the write's own datum renews at the
		// version the writer now holds. Refills ride only a reply the reader
		// sends: a parked write's goroutine leaves the list alone.
		renewed := s.m.Renew(c.client, r.renew, s.clk.Now(), s.version)
		var refills []proto.RefillWire
		if r.inline {
			refills = c.takeRefills(vfs.Datum{Kind: vfs.FileData, Node: r.res.Attr.ID}, proto.WriteRepRoom(r.res.Attr, len(renewed)))
		}
		c.replyEnc(r.f.ReqID, proto.TWriteRep, func(e *proto.Enc) { e.Attr(r.res.Attr).EncodeGrants(renewed).EncodeRefills(refills) })
	}
}

// takeRefills takes the connection's refill list (srvcore.Refills.Take)
// into a reply with room bytes to spare, which carries own; it runs on
// the connection's reader. A file gone or unreadable to the client is
// dropped, and one that does not fit is kept for a later reply.
func (c *serverConn) takeRefills(own vfs.Datum, room int) []proto.RefillWire {
	if c.refills.Len() == 0 {
		return nil
	}
	s := c.srv
	var out []proto.RefillWire
	c.refills.Take(s.m, c.client, []vfs.Datum{own}, s.clk.Now(), func(d vfs.Datum) srvcore.Admit {
		if s.store.CheckAccess(d.Node, string(c.client), false) != nil {
			return srvcore.RefillDrop
		}
		// Sized before the grant, so no lease is granted that the reply
		// cannot carry.
		attr, err := s.store.Stat(d.Node)
		if err != nil {
			return srvcore.RefillDrop
		}
		if proto.RefillLen(attr) > room {
			return srvcore.RefillKeep
		}
		return srvcore.RefillGrant
	}, func(g proto.GrantWire) {
		// Read after the grant: a write now waits for this client's
		// approval, which this reader has yet to read, so the store holds
		// the version granted.
		r := proto.RefillWire{Grant: g}
		var err error
		if r.Data, r.Attr, err = s.store.ReadFile(g.Datum.Node); err != nil {
			return
		}
		r.Grant.Version = r.Attr.Version
		n := proto.RefillLen(r.Attr)
		if n > room {
			// A write that applied between the sizing and the grant grew
			// the file. The lease stands unknown to the client: the next
			// write on the file asks it, and it approves, holding nothing.
			return
		}
		room -= n
		out = append(out, r)
	})
	return out
}

func (c *serverConn) handleExtend(f proto.Frame) {
	dec := proto.NewDec(f.Payload)
	data := dec.DecodeData()
	if dec.Err != nil {
		c.fail(f.ReqID, dec.Err)
		return
	}
	s := c.srv
	grants := s.m.Renew(c.client, data, s.clk.Now(), s.version)
	c.replyEnc(f.ReqID, proto.TExtendRep, func(e *proto.Enc) { e.EncodeGrants(grants) })
}

func (c *serverConn) handleRelease(f proto.Frame) {
	dec := proto.NewDec(f.Payload)
	data := dec.DecodeData()
	if dec.Err != nil {
		c.fail(f.ReqID, dec.Err)
		return
	}
	// A released lease may have been the last blocker on a deferred write.
	s := c.srv
	s.perform(s.m.Release(c.client, data, s.clk.Now()))
	c.replyEnc(f.ReqID, proto.TOK, nil)
}

func (c *serverConn) handleReadDir(f proto.Frame) {
	dec := proto.NewDec(f.Payload)
	node := vfs.NodeID(dec.U64())
	if dec.Err != nil {
		c.fail(f.ReqID, dec.Err)
		return
	}
	s := c.srv
	entries, attr, err := s.store.ReadDir(node)
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	grant := c.served(vfs.Datum{Kind: vfs.DirBinding, Node: node})
	c.replyEnc(f.ReqID, proto.TReadDirRep, func(e *proto.Enc) {
		e.Attr(attr).EncodeGrants([]proto.GrantWire{grant}).U32(uint32(len(entries)))
		for _, ent := range entries {
			e.Str(ent.Name).U64(uint64(ent.ID))
			if ent.IsDir {
				e.U8(1)
			} else {
				e.U8(0)
			}
		}
	})
}

func (c *serverConn) handleStat(f proto.Frame) {
	dec := proto.NewDec(f.Payload)
	node := vfs.NodeID(dec.U64())
	if dec.Err != nil {
		c.fail(f.ReqID, dec.Err)
		return
	}
	attr, err := c.srv.store.Stat(node)
	if err != nil {
		c.fail(f.ReqID, err)
		return
	}
	c.replyEnc(f.ReqID, proto.TStatRep, func(e *proto.Enc) { e.Attr(attr) })
}

// handleCreate covers TCreate (files) and TMkdir (directories).
func (c *serverConn) handleCreate(r *request) {
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		op = vfs.Op{Kind: vfs.OpCreate, Path: dec.Str(), Owner: string(c.client), Perm: vfs.Perm(dec.U8())}
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		if r.f.Type == proto.TMkdir {
			op.Kind = vfs.OpMkdir
		}
		// Directories are the namespace skeleton, not sharded data: files
		// under one directory hash across every group, so the directory must
		// exist on all of them (the Router mkdirs group-wide) and only file
		// creation is ownership-gated.
		if op.Kind == vfs.OpCreate && !c.checkOwner(r.f.ReqID, op.Path) {
			return
		}
	}
	if c.srv.run(c, r, op) {
		c.replyEnc(r.f.ReqID, proto.TCreateRep, func(e *proto.Enc) { c.encodeTouched(e.Attr(r.res.Attr), r.res.Dirs[0]) })
	}
}

// encodeTouched ends a namespace mutation's reply with each directory
// whose binding it changed and that binding's version now (0: none).
// The writer gets no callback for its own change: this tells its cache
// which directories to patch, and (the version having moved by exactly
// one) whether its copy was current up to the change.
func (c *serverConn) encodeTouched(e *proto.Enc, dirs ...vfs.NodeID) {
	for _, id := range dirs {
		v, _ := c.srv.store.Version(vfs.Datum{Kind: vfs.DirBinding, Node: id})
		e.U64(uint64(id)).U64(v)
	}
}

func (c *serverConn) handleRemove(r *request) {
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		op = vfs.Op{Kind: vfs.OpRemove, Path: dec.Str()}
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		if !c.checkOwner(r.f.ReqID, op.Path) {
			return
		}
	}
	if c.srv.run(c, r, op) {
		c.replyEnc(r.f.ReqID, proto.TOK, func(e *proto.Enc) { c.encodeTouched(e, r.res.Dirs[0]) })
	}
}

func (c *serverConn) handleRename(r *request) {
	s := c.srv
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		op = vfs.Op{Kind: vfs.OpRename, Path: dec.Str(), To: dec.Str()}
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
		// The rename is homed at the source shard; a destination that hashes
		// to another group is moved there (crossShardRename).
		if !c.checkOwner(r.f.ReqID, op.Path) {
			return
		}
		if ring := s.cfg.Shard.Ring; ring != nil && ring.Lookup(op.To) != s.cfg.Shard.GroupID {
			c.crossShardRename(r, op)
			return
		}
	} else if op := r.plan.Op(); op.Kind != vfs.OpRename {
		c.crossShardRename(r, op) // its commit point or its undo, handed back
		return
	}
	if s.run(c, r, op) {
		c.replyEnc(r.f.ReqID, proto.TOK, func(e *proto.Enc) { c.encodeTouched(e, r.res.Dirs[:]...) })
	}
}

// handleSetPerm changes ownership/permissions — per §2, attribute
// changes are writes to the parent's binding datum, so they defer on
// conflicting binding leases like a rename would.
func (c *serverConn) handleSetPerm(r *request) {
	var op vfs.Op
	if r.step.Kind == 0 {
		dec := proto.NewDec(r.f.Payload)
		op = vfs.Op{Kind: vfs.OpSetPerm, Node: vfs.NodeID(dec.U64()), Owner: dec.Str(), Perm: vfs.Perm(dec.U8())}
		if dec.Err != nil {
			c.fail(r.f.ReqID, dec.Err)
			return
		}
	}
	if c.srv.run(c, r, op) {
		c.replyEnc(r.f.ReqID, proto.TOK, nil)
	}
}

// handleApprove runs on the connection's reader. An approval asking for
// a refill puts the file on the connection's refill list.
func (c *serverConn) handleApprove(f proto.Frame) {
	a := proto.NewDec(f.Payload).DecodeApprove()
	s := c.srv
	now := s.clk.Now()
	if a.Refill && a.Datum.Kind == vfs.FileData {
		c.refills.Ask(a.Datum, now)
	}
	_, e := s.m.Approve(c.client, a.WriteID, now)
	if s.obs.Enabled() {
		shard := s.lm.ShardForWrite(a.WriteID)
		s.obs.Record(obs.Event{
			Type: obs.EvApprove, Client: string(c.client), Datum: a.Datum,
			Shard: shard, WriteID: uint64(a.WriteID),
		})
		// An approval means the holder invalidated its cached copy and
		// the server dropped its lease record: an eviction.
		s.obs.Record(obs.Event{
			Type: obs.EvEviction, Client: string(c.client), Datum: a.Datum,
			Shard: shard, WriteID: uint64(a.WriteID),
		})
	}
	s.perform(e)
}
