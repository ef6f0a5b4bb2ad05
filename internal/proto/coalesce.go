package proto

import (
	"io"
	"sync"

	"leases/internal/obs/tracing"
)

// Coalescer batches outbound frames for one connection by group commit
// with an inline leader: the appender that finds the coalescer idle
// writes its frame itself — one syscall, no goroutine handoff, exactly
// the blocking path an uncoalesced connection would take — while
// appenders arriving during that write only append encoded bytes under
// a short mutex and return. The leader re-checks the pending buffer
// after each write and carries whatever accumulated in the next one, so
// under load many replies, pushes or pipelined requests cost one write
// syscall instead of one each, and batch size grows exactly when the
// wire is the bottleneck. The transport is any io.Writer, so the same
// coalescer serves the TCP server, the pipelined client, and in-memory
// test pipes.
//
// Because Append can write inline, its caller may block on the
// transport, and two peers that both stopped reading to write would
// never finish. So one side always reads: the client's read loop never
// appends (approval replies go out through a helper goroutine), and a
// server may therefore answer from the goroutine that reads requests —
// its write drains unless that one client is stuck, and then only that
// connection waits. While such a reader has more requests buffered it
// can Hold the leadership, so the burst's replies leave in one write.
//
// Backpressure: when the pending buffer exceeds MaxPending the
// appending goroutine blocks until the leader drains it — the same
// stall a direct per-frame Write against a full socket buffer would
// have produced, so a slow peer still slows its producers instead of
// ballooning memory.
type Coalescer struct {
	w io.Writer

	// OnFlush, when non-nil, observes every flush with the number of
	// frames and bytes it coalesced. Set before the first Append.
	OnFlush func(frames, bytes int)
	// OnStall, when non-nil, observes every backpressure stall with the
	// queue depth (frames pending) that triggered it. Set before the
	// first Append.
	OnStall func(depth int)
	// OnError, when non-nil, runs once when a flush fails (typically
	// closing the transport so the read side notices). Set before the
	// first Append. Hooks run under the leader's flush and must not call
	// Close, which waits for that flush to finish.
	OnError func(error)
	// Stats, when non-nil, counts every appended frame by type and wire
	// size. Set before the first Append.
	Stats *WireStats

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []byte
	frames   int
	spare    []byte // flushed buffer recycled for the next pending swap
	flushing bool   // a leader is draining pending, or holds it (held)
	held     bool   // the leader is a Hold: nothing is being written
	closed   bool
	err      error
	enc      Enc // lent to fill under mu, so no frame allocates one
}

// MaxPending bounds the pending buffer before appenders block. It must
// exceed MaxFrame so a maximal frame can always be enqueued once the
// buffer drains.
const MaxPending = MaxFrame + (1 << 20)

// holdMax is how much may accumulate under a Hold before the appender
// that crosses it writes regardless: a long burst of large replies
// streams out, and never reaches MaxPending to wait on its own holder.
const holdMax = 64 << 10

// maxRetainedFlush caps the buffer capacity kept across flushes, so one
// oversized reply does not pin megabytes for an idle connection.
const maxRetainedFlush = 256 << 10

// NewCoalescer returns a coalescer over w. Callers set the On* hooks
// before the first Append and must call Close when done.
func NewCoalescer(w io.Writer) *Coalescer {
	c := &Coalescer{w: w}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Append encodes one frame into the pending buffer: a header via
// BeginFrame, the payload through fill (an encoder appending in place;
// nil means an empty payload), and the patched length prefix. It
// returns false when the coalescer is closed or its transport failed.
// When no flush is in progress the appender becomes the leader and
// writes inline before returning; otherwise it returns immediately and
// the active leader's next batch carries the frame. It may also block
// on backpressure.
func (c *Coalescer) Append(t MsgType, reqID uint64, fill func(*Enc)) bool {
	return c.append(t, reqID, tracing.Context{}, fill, nil)
}

// AppendPayload is the one-shot form of Append for callers already
// holding an encoded payload. When tc is valid the frame carries a trace
// header.
func (c *Coalescer) AppendPayload(t MsgType, reqID uint64, tc tracing.Context, payload []byte) bool {
	return c.append(t, reqID, tc, nil, payload)
}

// append frames one message: payload, then whatever fill encodes.
func (c *Coalescer) append(t MsgType, reqID uint64, tc tracing.Context, fill func(*Enc), payload []byte) bool {
	c.mu.Lock()
	for len(c.pending) >= MaxPending && !c.closed && c.err == nil {
		if c.OnStall != nil {
			c.OnStall(c.frames)
		}
		c.cond.Wait()
	}
	if c.closed || c.err != nil {
		c.mu.Unlock()
		return false
	}
	start := len(c.pending)
	c.pending = append(BeginFrameCtx(c.pending, t, reqID, tc), payload...)
	if fill != nil {
		c.enc.b = c.pending
		fill(&c.enc)
		c.pending, c.enc.b = c.enc.b, nil
	}
	if err := FinishFrame(c.pending, start); err != nil {
		c.pending = c.pending[:start]
		c.mu.Unlock()
		return false
	}
	c.Stats.CountOut(t, len(c.pending)-start)
	c.frames++
	if !c.flushing || (c.held && len(c.pending) >= holdMax) {
		c.flushing, c.held = true, false
		c.flushAsLeader()
	}
	c.mu.Unlock()
	return true
}

// Hold(true) claims the flush leadership, if it is free, without writing:
// frames appended meanwhile accumulate (up to holdMax) until Hold(false)
// writes them — a no-op when an appender that crossed holdMax already did,
// or when the claim found a leader at work, who carries them instead.
func (c *Coalescer) Hold(on bool) {
	c.mu.Lock()
	if on && !c.flushing && !c.closed {
		c.flushing, c.held = true, true
	} else if !on && c.held {
		c.held = false
		c.flushAsLeader()
	}
	c.mu.Unlock()
}

// Close waits out any in-flight flush (which drains everything pending,
// since the leader only steps down on an empty buffer or an error) and
// marks the coalescer dead. Appends after Close are dropped. It is
// idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast() // release backpressure waiters
	for c.flushing && !c.held {
		c.cond.Wait()
	}
	// A Hold ends here, its frames written; a leader that stepped down
	// left none, but this is cheap insurance that Close never strands any.
	if c.held || len(c.pending) > 0 && c.err == nil {
		c.flushing, c.held = true, false
		c.flushAsLeader()
	}
	c.mu.Unlock()
}

// flushAsLeader drains the pending buffer, one Write per accumulated
// batch, until it is empty or the transport fails. Called with c.mu
// held and c.flushing set; returns with c.mu held and c.flushing
// cleared.
func (c *Coalescer) flushAsLeader() {
	for len(c.pending) > 0 && c.err == nil {
		buf, frames := c.pending, c.frames
		c.pending, c.frames = c.spare[:0], 0
		c.spare = nil
		c.mu.Unlock()

		_, err := c.w.Write(buf)
		if c.OnFlush != nil && err == nil {
			c.OnFlush(frames, len(buf))
		}

		c.mu.Lock()
		if cap(buf) <= maxRetainedFlush {
			c.spare = buf[:0]
		}
		if err != nil {
			// Latch the error before OnError observes it, and drop frames
			// appended during the failed write: they were bound for a dead
			// transport.
			c.err = err
			c.pending = nil
			c.mu.Unlock()
			if c.OnError != nil {
				c.OnError(err)
			}
			c.mu.Lock()
			break
		}
		c.cond.Broadcast() // wake backpressure waiters and Close
	}
	c.flushing = false
	c.cond.Broadcast()
}
