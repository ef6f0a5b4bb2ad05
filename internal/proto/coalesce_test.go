package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"leases/internal/obs/tracing"
)

// TestAppendFrameRoundTrip pins the in-place encoders against the
// original writer: a frame built with BeginFrame/FinishFrame (or
// AppendFrame) must be byte-identical to WriteFrame's output.
func TestAppendFrameRoundTrip(t *testing.T) {
	f := Frame{Type: TReadRep, ReqID: 42, Payload: []byte("hello world")}
	var direct bytes.Buffer
	if err := WriteFrame(&direct, f); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), appended) {
		t.Fatalf("AppendFrame bytes differ from WriteFrame:\n%x\n%x", appended, direct.Bytes())
	}

	buf := BeginFrame(nil, f.Type, f.ReqID)
	e := EncOn(buf)
	e.Blob(nil) // arbitrary payload built through the encoder
	buf = e.Bytes()
	if err := FinishFrame(buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.ReqID != f.ReqID {
		t.Fatalf("decoded type=%d reqID=%d, want %d/%d", got.Type, got.ReqID, f.Type, f.ReqID)
	}
}

// TestFinishFrameTooBig: a payload over MaxFrame must be rejected when
// the length prefix is patched.
func TestFinishFrameTooBig(t *testing.T) {
	buf := BeginFrame(nil, TWrite, 1)
	buf = append(buf, make([]byte, MaxFrame+1)...)
	if err := FinishFrame(buf, 0); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("FinishFrame err = %v, want ErrFrameTooBig", err)
	}
}

// chunkWriter records every Write call — the flush syscalls a coalesced
// connection would issue. When gated, each Write announces itself on
// entered and then blocks until a gate tick, so tests can sequence
// appends against an in-flight flush deterministically.
type chunkWriter struct {
	mu      sync.Mutex
	chunks  [][]byte
	gate    chan struct{} // when non-nil, each Write blocks until a tick
	entered chan struct{} // when non-nil, each Write signals entry first
	err     error
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if w.entered != nil {
		w.entered <- struct{}{}
	}
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.chunks = append(w.chunks, append([]byte(nil), p...))
	return len(p), nil
}

func (w *chunkWriter) all() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []byte
	for _, c := range w.chunks {
		out = append(out, c...)
	}
	return out
}

func (w *chunkWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.chunks)
}

// TestCoalescerBatches: frames appended while a flush is blocked must
// go out together in the next flush — the group-commit effect.
func TestCoalescerBatches(t *testing.T) {
	w := &chunkWriter{gate: make(chan struct{}), entered: make(chan struct{})}
	c := NewCoalescer(w)
	var framesFlushed atomic.Int64
	c.OnFlush = func(frames, bytes int) { framesFlushed.Add(int64(frames)) }

	// The first append wins leadership and writes inline, blocking on
	// the gate, so it runs on its own goroutine.
	leaderDone := make(chan bool, 1)
	go func() { leaderDone <- c.AppendPayload(TOK, 1, tracing.Context{}, nil) }()
	<-w.entered // leader holds frame 1, stuck in Write
	// Pile up more frames while the leader is stuck; these see the
	// flush in progress and return without I/O.
	for id := uint64(2); id <= 10; id++ {
		if !c.AppendPayload(TOK, id, tracing.Context{}, []byte("x")) {
			t.Fatalf("append %d failed", id)
		}
	}
	w.gate <- struct{}{} // release first flush
	<-w.entered          // leader's second flush: the batched 9
	w.gate <- struct{}{}
	if !<-leaderDone {
		t.Fatal("append 1 failed")
	}
	c.Close()

	if got := w.count(); got != 2 {
		t.Fatalf("flush syscalls = %d, want 2 (1 leader + 1 batch)", got)
	}
	if got := framesFlushed.Load(); got != 10 {
		t.Fatalf("frames flushed = %d, want 10", got)
	}
	// The concatenated stream must decode as the ten frames in order.
	r := bytes.NewReader(w.all())
	for id := uint64(1); id <= 10; id++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("decoding frame %d: %v", id, err)
		}
		if f.ReqID != id {
			t.Fatalf("frame order broken: got reqID %d, want %d", f.ReqID, id)
		}
		f.Recycle()
	}
}

// TestCoalescerCloseDrains: a Close racing an in-flight flush must wait
// for the leader to finish draining, so every appended frame reaches
// the wire before Close returns.
func TestCoalescerCloseDrains(t *testing.T) {
	w := &chunkWriter{gate: make(chan struct{}), entered: make(chan struct{})}
	c := NewCoalescer(w)
	go c.AppendPayload(TOK, 1, tracing.Context{}, nil) // leader, stuck in the gated Write
	<-w.entered
	for id := uint64(2); id <= 5; id++ {
		c.AppendPayload(TOK, id, tracing.Context{}, nil) // pend behind the stuck leader
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	w.gate <- struct{}{} // frame 1 lands
	<-w.entered          // leader flushing the batched 2..5
	w.gate <- struct{}{}
	<-closed
	r := bytes.NewReader(w.all())
	for id := uint64(1); id <= 5; id++ {
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		f.Recycle()
	}
	if c.AppendPayload(TOK, 6, tracing.Context{}, nil) {
		t.Fatal("append after Close should report failure")
	}
}

// TestCoalescerWriteError: a failing transport must surface through
// OnError, fail subsequent appends, and never deadlock Close.
func TestCoalescerWriteError(t *testing.T) {
	w := &chunkWriter{err: fmt.Errorf("boom")}
	c := NewCoalescer(w)
	errCh := make(chan error, 1)
	c.OnError = func(err error) { errCh <- err }
	c.AppendPayload(TOK, 1, tracing.Context{}, nil)
	if err := <-errCh; err == nil {
		t.Fatal("OnError got nil")
	}
	// The error is recorded before OnError fires.
	if c.err == nil {
		t.Fatal("error not latched after failed flush")
	}
	if c.AppendPayload(TOK, 2, tracing.Context{}, nil) {
		t.Fatal("append succeeded after transport failure")
	}
	c.Close()
}

// TestCoalescerBackpressure: an appender exceeding MaxPending must
// block until the flusher drains, and OnStall must fire.
func TestCoalescerBackpressure(t *testing.T) {
	w := &chunkWriter{gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	c := NewCoalescer(w)
	stallCh := make(chan int, 1)
	c.OnStall = func(depth int) {
		select {
		case stallCh <- depth:
		default:
		}
	}

	big := make([]byte, 1<<20)
	go c.AppendPayload(TWrite, 0, tracing.Context{}, big) // leader, stuck in a gated Write
	<-w.entered
	done := make(chan struct{})
	go func() {
		defer close(done)
		// With the leader stuck, everything below accumulates in
		// pending; crossing MaxPending must stall the appender.
		for i := 1; i <= MaxPending/len(big)+1; i++ {
			if !c.AppendPayload(TWrite, uint64(i), tracing.Context{}, big) {
				return
			}
		}
	}()
	depth := <-stallCh // the appender hit backpressure
	if depth == 0 {
		t.Fatal("stall reported zero queue depth")
	}
	// Drain: release flushes until the appender finishes and the
	// coalescer shuts down.
	quit := make(chan struct{})
	go func() {
		for {
			select {
			case w.gate <- struct{}{}:
			case <-quit:
				return
			}
		}
	}()
	<-done
	c.Close()
	close(quit)
}

// TestCoalescerConcurrentAppend hammers Append from many goroutines —
// the server's reply+push mix — and checks every frame arrives intact
// (run under -race in CI).
func TestCoalescerConcurrentAppend(t *testing.T) {
	w := &chunkWriter{}
	c := NewCoalescer(w)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i + 1)
				if g%2 == 0 {
					c.AppendPayload(TOK, id, tracing.Context{}, []byte("reply"))
				} else {
					c.Append(TApprovalReq, id, func(e *Enc) { e.Str("push") })
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()

	seen := make(map[uint64]bool)
	r := bytes.NewReader(w.all())
	for {
		f, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("corrupt stream: %v", err)
		}
		if seen[f.ReqID] {
			t.Fatalf("duplicate reqID %d", f.ReqID)
		}
		seen[f.ReqID] = true
		f.Recycle()
	}
	if len(seen) != workers*per {
		t.Fatalf("decoded %d frames, want %d", len(seen), workers*per)
	}
}

// TestFrameReaderBatch: many frames delivered in one read must decode
// without further I/O, and a frame larger than the initial buffer must
// grow it transparently.
func TestFrameReaderBatch(t *testing.T) {
	var wire []byte
	var err error
	for id := uint64(1); id <= 50; id++ {
		wire, err = AppendFrame(wire, Frame{Type: TOK, ReqID: id, Payload: []byte("abc")})
		if err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 64<<10) // outgrows readBufInit
	for i := range big {
		big[i] = byte(i)
	}
	wire, err = AppendFrame(wire, Frame{Type: TReadRep, ReqID: 51, Payload: big})
	if err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&oneShotReader{data: wire})
	for id := uint64(1); id <= 50; id++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if f.ReqID != id || string(f.Payload) != "abc" {
			t.Fatalf("frame %d corrupted: id=%d payload=%q", id, f.ReqID, f.Payload)
		}
		f.Recycle()
	}
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, big) {
		t.Fatal("big frame payload corrupted")
	}
	f.Recycle()
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("trailing Next err = %v, want EOF", err)
	}
}

// TestFrameReaderTruncated: a stream ending mid-frame must report
// ErrTruncated, not a silent EOF.
func TestFrameReaderTruncated(t *testing.T) {
	wire, err := AppendFrame(nil, Frame{Type: TOK, ReqID: 1, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(wire); cut++ {
		fr := NewFrameReader(bytes.NewReader(wire[:cut]))
		if _, err := fr.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestFrameReaderShrinks: after an outsized frame drains, the grown
// buffer must be released so idle connections stay small.
func TestFrameReaderShrinks(t *testing.T) {
	big := make([]byte, readBufMax*2)
	wire, err := AppendFrame(nil, Frame{Type: TReadRep, ReqID: 1, Payload: big})
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	f.Recycle()
	if cap(fr.buf) > readBufMax {
		t.Fatalf("buffer not shrunk: cap %d > max %d", cap(fr.buf), readBufMax)
	}
}

// oneShotReader returns everything in a single Read — the batched
// delivery a coalesced peer produces.
type oneShotReader struct {
	data []byte
	off  int
}

func (r *oneShotReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestAllocFreeCoalescerAppend: framing a message costs no allocation
// at either endpoint — the encoder handed to fill is the coalescer's own,
// and a ready payload is copied without a closure.
func TestAllocFreeCoalescerAppend(t *testing.T) {
	c := NewCoalescer(io.Discard)
	payload := make([]byte, 1024)
	a := ApprovalWire{WriteID: 7}
	step := func() {
		c.Append(TApprovalReq, 0, func(e *Enc) { e.EncodeApproval(a) })
		c.AppendPayload(TWrite, 9, tracing.Context{}, payload)
		c.Hold(true)
		c.AppendPayload(TReadRep, 9, tracing.Context{}, payload)
		c.Hold(false)
	}
	step() // grow the buffers once
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("appending frames allocates %v times, want 0", n)
	}
}

// TestCoalescerHold: frames appended under a Hold, by the holder or by
// anyone else, leave in one write when it ends; past holdMax the
// appender that crossed it writes without waiting for the holder, and a
// Close finds no leadership to wait for.
func TestCoalescerHold(t *testing.T) {
	w := &chunkWriter{}
	c := NewCoalescer(w)
	c.Hold(true)
	var wg sync.WaitGroup
	for id := uint64(1); id <= 4; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.AppendPayload(TOK, id, tracing.Context{}, []byte("x"))
		}()
	}
	wg.Wait()
	if got := w.count(); got != 0 {
		t.Fatalf("%d writes under a Hold, want 0", got)
	}
	c.Hold(false)
	c.Hold(false) // nothing left to do
	if got := w.count(); got != 1 {
		t.Fatalf("%d writes after the Hold, want 1 carrying all 4 frames", got)
	}
	for r, n := bytes.NewReader(w.all()), 0; n < 4; n++ {
		if _, err := ReadFrame(r); err != nil {
			t.Fatalf("frame %d of the held batch: %v", n+1, err)
		}
	}

	c.Hold(true)
	c.AppendPayload(TReadRep, 5, tracing.Context{}, make([]byte, holdMax))
	if got := w.count(); got != 2 {
		t.Fatalf("%d writes after a held append of holdMax bytes, want 2: it flushes itself", got)
	}
	c.Hold(false) // it ended with that flush
	c.AppendPayload(TOK, 6, tracing.Context{}, nil)
	if got := w.count(); got != 3 {
		t.Fatalf("%d writes, want 3: an append after the hold ended writes at once", got)
	}

	c.Hold(true)
	c.AppendPayload(TOK, 7, tracing.Context{}, nil)
	c.Close() // must not wait for the hold, and must not strand frame 7
	if got := w.count(); got != 4 {
		t.Fatalf("%d writes after Close under a Hold, want 4", got)
	}
}

// TestFrameReaderWhole: Whole is true exactly while Next can return a
// frame without reading the transport.
func TestFrameReaderWhole(t *testing.T) {
	var wire []byte
	for id := uint64(1); id <= 3; id++ {
		wire, _ = AppendFrame(wire, Frame{Type: TOK, ReqID: id, Payload: []byte("abc")})
	}
	one := len(wire) / 3
	fr := NewFrameReader(&oneShotReader{data: wire[:2*one+5]}) // two frames and a piece of the third
	if fr.Whole() {
		t.Fatal("Whole before anything was read")
	}
	for id, want := range []bool{true, false} {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if got := fr.Whole(); got != want {
			t.Fatalf("after frame %d: Whole = %v, want %v (%d bytes buffered)", id+1, got, want, fr.wo-fr.ro)
		}
	}
}
