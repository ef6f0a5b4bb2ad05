// Request pipelining: the asynchronous form of the cache's RPCs.
//
// The blocking API issues one request and waits — at most one frame per
// client is ever in flight, so each operation pays a full round trip
// and the server flushes every reply alone. StartRead / StartWrite /
// StartExtendAll-style futures split issue from completion: a caller
// starts N operations, the coalescer batches their frames into few
// write syscalls, the server's reply coalescer batches the responses
// back, and the completion table (Cache.calls, keyed by request ID)
// demultiplexes them in whatever order they finish. This is the §4
// amortization argument applied to the transport: per-message cost is
// what limits scale, so the protocol spends fewer, larger messages.
//
// Semantics under pipelining:
//
//   - Replies may complete out of order; each future resolves its own
//     request only. Approval pushes interleave freely with replies and
//     are handled by the demux loop as they arrive, so a push crossing
//     a pipelined grant still fences it from the cache (cache.Req).
//   - A connection failure fails every in-flight future with ErrClosed.
//     With the session layer enabled, Wait transparently resubmits the
//     request on the reconnected session within the per-op retry
//     budget (Config.RetryBudget) — the same policy the blocking calls
//     have. Frames queued but unsent when the connection died are
//     never replayed wholesale: only futures whose Wait is still
//     pending resubmit, each as a fresh request.
//   - Futures are not goroutine-safe: one goroutine starts and waits a
//     given future (many goroutines may each run their own).
package client

import (
	"errors"
	"fmt"
	"time"

	"leases/internal/cache"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// Call is one in-flight raw RPC: a request enqueued on the connection
// whose reply has not been claimed yet.
type Call struct {
	c       *Cache
	t       proto.MsgType
	payload []byte // retained so session retries can resubmit
	id      uint64
	ch      chan proto.Frame
	budget  int
	began   time.Time    // obs timing; spans retries
	span    tracing.Span // trace root; spans retries like began
	done    bool
	err     error
}

// clientSpanNames maps request types to their root span names,
// precomputed so the sampled path never concatenates strings.
var clientSpanNames = map[proto.MsgType]string{
	proto.TRead:    "client.read",
	proto.TWrite:   "client.write",
	proto.TLookup:  "client.lookup",
	proto.TReadDir: "client.readdir",
	proto.TCreate:  "client.create",
	proto.TMkdir:   "client.mkdir",
	proto.TRemove:  "client.remove",
	proto.TRename:  "client.rename",
	proto.TSetPerm: "client.setperm",
	proto.TExtend:  "client.extend",
	proto.TRelease: "client.release",
}

func clientSpanName(t proto.MsgType) string {
	if n, ok := clientSpanNames[t]; ok {
		return n
	}
	return "client.call"
}

// startCall registers the request in the completion table and appends
// its frame to the current connection's coalescer, without waiting for
// the reply.
func (c *Cache) startCall(t proto.MsgType, payload []byte) *Call {
	cl := &Call{c: c, t: t, payload: payload, budget: c.retryBudget()}
	if c.cfg.Obs.Enabled() {
		cl.began = c.clk.Now()
	}
	if c.cfg.Tracer.Enabled() {
		// The head-sampling decision for the whole distributed trace is
		// made here, at the operation's origin; everything downstream
		// inherits it through the propagated context.
		cl.span = c.cfg.Tracer.StartRoot(clientSpanName(t))
	}
	cl.err = cl.submit()
	return cl
}

// submit performs one enqueue attempt on the current incarnation.
func (cl *Call) submit() error {
	c := cl.c
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.down {
		c.mu.Unlock()
		return fmt.Errorf("%w: session down", ErrClosed)
	}
	c.nextID++
	cl.id = c.nextID
	cl.ch = make(chan proto.Frame, 1)
	c.calls[cl.id] = cl.ch
	co := c.co
	c.mu.Unlock()
	// A sampled call stamps its trace context; an unsampled one carries
	// the zero context, which encodes no header.
	tc := cl.span.Context()
	// The coalescer read under the same lock as the registration is the
	// incarnation the request belongs to. If the connection dies between
	// unlock and append, either the append fails (coalescer closed) or
	// the frame dies with the old connection — and in both cases
	// failCallsLocked has closed cl.ch, so Wait retries.
	if !co.AppendPayload(cl.t, cl.id, tc, cl.payload) {
		c.mu.Lock()
		delete(c.calls, cl.id)
		c.mu.Unlock()
		return fmt.Errorf("%w: send failed", ErrClosed)
	}
	return nil
}

// Wait blocks until the reply arrives and returns it. A call killed by
// a connection failure (the session closing its channel) is
// resubmitted on the reconnected session within the retry budget;
// server-reported errors surface immediately as ErrRemote. Wait is
// idempotent in its completion and error state, but the reply frame is
// handed out exactly once: the first successful Wait transfers
// ownership of the frame — whose pooled payload the caller typically
// recycles — so later calls return an empty frame with the first
// error (nil after success).
func (cl *Call) Wait() (proto.Frame, error) {
	if cl.done {
		return proto.Frame{}, cl.err
	}
	for attempt := 0; ; attempt++ {
		if cl.err == nil {
			f, ok := <-cl.ch
			if ok {
				return cl.finish(f)
			}
			cl.err = ErrClosed
		}
		if !errors.Is(cl.err, ErrClosed) || attempt >= cl.budget {
			cl.done = true
			cl.span.EndNote("closed")
			return proto.Frame{}, cl.err
		}
		if !cl.c.awaitReady(cl.c.retryWait()) {
			cl.done, cl.err = true, ErrClosed
			cl.span.EndNote("given-up")
			return proto.Frame{}, ErrClosed
		}
		cl.span.Annotate("retried")
		cl.err = cl.submit()
	}
}

func (cl *Call) finish(f proto.Frame) (proto.Frame, error) {
	cl.done = true
	c := cl.c
	if c.cfg.Obs.Enabled() {
		c.observeOp(cl.t, c.clk.Now().Sub(cl.began))
	}
	if f.Type == proto.TError {
		msg := proto.NewDec(f.Payload).Str()
		f.Recycle()
		cl.err = fmt.Errorf("%w: %s", ErrRemote, msg)
		cl.span.EndNote("remote-error")
		return proto.Frame{}, cl.err
	}
	if f.Type == proto.TNotOwner {
		// A sharded server refusing a path it does not own; the Router
		// steers the retry. Surfaced as a typed error so it is never
		// mistaken for a transport failure (not retried here) and never
		// cached.
		d := proto.NewDec(f.Payload)
		no := NotOwnerError{Group: int(d.U32()), Epoch: d.U64()}
		f.Recycle()
		cl.err = no
		cl.span.EndNote("not-owner")
		return proto.Frame{}, cl.err
	}
	cl.span.End()
	if f.Type == proto.TOK && len(f.Payload) == 0 {
		// Empty success: callers that discard the frame would otherwise
		// strand the pooled buffer.
		f.Recycle()
	}
	return f, nil
}

// ReadCall is an in-flight Read. StartRead resolves the path locally
// and either satisfies the read from cache immediately or launches the
// fetch; Wait completes it.
type ReadCall struct {
	c    *Cache
	call *Call
	path string
	q    cache.Req
	hit  bool
	data []byte
	err  error
	done bool
}

// StartRead begins a read of path and never blocks on the server: a
// name the cache resolves under valid binding leases is read from the
// cached copy or fetched by node, and any other is sent as one
// path-addressed TRead — lookup and read in a single round trip. Like a
// write, a fetch carries the renewals due (cache.Core.AppendRenewals).
func (c *Cache) StartRead(path string) *ReadCall {
	r := &ReadCall{c: c, path: path}
	now := c.clk.Now()
	c.mu.Lock()
	ent, named := c.openLocked(path, now)
	if named && ent.IsDir {
		c.mu.Unlock()
		r.done, r.err = true, vfs.ErrIsDir
		return r
	}
	c.metrics.Reads++
	if data, ok := c.core.Contents(ent.Datum(), now); named && ok {
		c.metrics.ReadHits++
		out := make([]byte, len(data))
		copy(out, data)
		c.mu.Unlock()
		r.done, r.hit, r.data = true, true, out
		return r
	}
	r.q = c.core.Begin(now)
	renew := c.core.AppendRenewals(nil, now)
	c.mu.Unlock()
	var e proto.Enc
	if named {
		e.U64(uint64(ent.ID)).Str("")
	} else {
		e.U64(0).Str(path)
	}
	r.call = c.startCall(proto.TRead, e.EncodeData(renew).Bytes())
	return r
}

// Hit reports whether the read was served from the local cache without
// a data RPC. It is meaningful as soon as StartRead returns.
func (r *ReadCall) Hit() bool { return r.hit }

// Wait returns the file contents. Idempotent.
func (r *ReadCall) Wait() ([]byte, error) {
	if r.done {
		return r.data, r.err
	}
	r.done = true
	c := r.c
	f, err := r.call.Wait()
	if err != nil {
		r.err = err
		return nil, err
	}
	defer f.Recycle()
	dec := proto.NewDec(f.Payload)
	rattr := dec.Attr()
	chain := dec.DecodeChain()
	grants := dec.DecodeGrants()
	data := dec.Blob()
	renewed := dec.DecodeGrants()
	refills := dec.DecodeRefills()
	if dec.Err != nil {
		r.err = dec.Err
		return nil, dec.Err
	}
	out := make([]byte, len(data))
	copy(out, data)
	c.mu.Lock()
	c.core.File(r.q, cache.Reply{Path: r.path, Attr: rattr, Chain: chain, Grants: grants, Data: data}, c.clk.Now())
	c.renewedLocked(r.q, renewed)
	c.refilledLocked(r.q, refills)
	c.mu.Unlock()
	r.data = out
	return out, nil
}

// WriteCall is an in-flight Write.
type WriteCall struct {
	c    *Cache
	call *Call
	d    vfs.Datum
	data []byte
	q    cache.Req
	err  error
	done bool
}

// StartWrite begins a write-through of data to path. The caller must
// not mutate data until Wait returns. A name the cache cannot resolve
// under valid binding leases costs a blocking lookup first; the write
// itself — including any server-side deferral for lease clearance — is
// asynchronous.
func (c *Cache) StartWrite(path string, data []byte) *WriteCall {
	w := &WriteCall{c: c}
	c.mu.Lock()
	ent, ok := c.openLocked(path, c.clk.Now())
	c.mu.Unlock()
	if !ok {
		attr, err := c.lookupRemote(path)
		if err != nil {
			w.done, w.err = true, err
			return w
		}
		ent = cache.Entry{ID: attr.ID, IsDir: attr.IsDir}
	}
	if ent.IsDir {
		w.done, w.err = true, vfs.ErrIsDir
		return w
	}
	w.d = ent.Datum()
	now := c.clk.Now()
	c.mu.Lock()
	w.q = c.core.Begin(now)
	renew := c.core.AppendRenewals(nil, now)
	c.mu.Unlock()
	w.data = data
	var e proto.Enc
	e.U64(uint64(ent.ID)).Blob(data).EncodeData(renew)
	w.call = c.startCall(proto.TWrite, e.Bytes())
	return w
}

// Wait blocks until the write is applied at the server. Idempotent.
func (w *WriteCall) Wait() error {
	if w.done {
		return w.err
	}
	w.done = true
	c := w.c
	f, err := w.call.Wait()
	if err != nil {
		w.err = err
		return err
	}
	defer f.Recycle()
	dec := proto.NewDec(f.Payload)
	nattr := dec.Attr()
	renewed := dec.DecodeGrants()
	refills := dec.DecodeRefills()
	if dec.Err != nil {
		w.err = dec.Err
		return dec.Err
	}
	c.mu.Lock()
	c.metrics.Writes++
	c.core.OwnWrite(w.q, w.d, nattr, w.data)
	c.renewedLocked(w.q, renewed)
	c.refilledLocked(w.q, refills)
	c.mu.Unlock()
	return nil
}

// ExtendCall is an in-flight batched lease extension.
type ExtendCall struct {
	c    *Cache
	call *Call
	q    cache.Req
	err  error
	done bool
}

// StartExtendAll begins renewing every held lease in one batched
// request (§3.1). With nothing held it completes immediately.
func (c *Cache) StartExtendAll() *ExtendCall {
	return c.startExtend(c.HeldData())
}

// startExtend begins renewing exactly the given data in one batched
// request. With no data it completes immediately.
func (c *Cache) startExtend(data []vfs.Datum) *ExtendCall {
	x := &ExtendCall{c: c}
	if len(data) == 0 {
		x.done = true
		return x
	}
	x.q = c.begin()
	var e proto.Enc
	x.call = c.startCall(proto.TExtend, e.EncodeData(data).Bytes())
	return x
}

// Wait blocks until the extension reply is applied. Idempotent.
func (x *ExtendCall) Wait() error {
	if x.done {
		return x.err
	}
	x.done = true
	c := x.c
	f, err := x.call.Wait()
	if err != nil {
		x.err = err
		return err
	}
	defer f.Recycle()
	dec := proto.NewDec(f.Payload)
	grants := dec.DecodeGrants()
	if dec.Err != nil {
		x.err = dec.Err
		return dec.Err
	}
	c.mu.Lock()
	c.renewedLocked(x.q, grants)
	c.mu.Unlock()
	return nil
}

// renewedLocked files extension grants answering a request stamped q:
// a TExtend batch, or the renewals a read or write carried. Callers hold
// c.mu.
func (c *Cache) renewedLocked(q cache.Req, grants []proto.GrantWire) {
	for _, d := range c.core.FileExtension(q, grants, c.clk.Now()) {
		c.invalidatedLocked(d)
	}
}

// refilledLocked files the refills ending a read or write reply, each as
// a node-addressed read reply under the stamp q of the request it rode:
// the fence, the version guard and the term anchor apply unchanged.
// Callers hold c.mu.
func (c *Cache) refilledLocked(q cache.Req, refills []proto.RefillWire) {
	for _, r := range refills {
		c.core.File(q, cache.Reply{Attr: r.Attr, Grants: []proto.GrantWire{r.Grant}, Data: r.Data, Refill: true}, c.clk.Now())
	}
}
