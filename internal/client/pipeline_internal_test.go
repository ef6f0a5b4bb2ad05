package client

// Deterministic pipelining tests over a scripted in-process server
// (net.Pipe): the peer follows a fixed frame schedule, so reply
// reordering, push interleaving and mid-request connection loss happen
// exactly where the test puts them — no timing races.

import (
	"errors"
	"net"
	"testing"
	"time"

	"leases/internal/proto"
	"leases/internal/vfs"
)

// serveHello consumes the client's hello on nc and acks it, returning
// the reader for the rest of the conversation.
func serveHello(nc net.Conn, boot uint64) (*proto.FrameReader, error) {
	fr := proto.GetReader(nc)
	f, err := fr.Next()
	if err != nil {
		proto.PutReader(fr)
		return nil, err
	}
	if f.Type != proto.THello {
		f.Recycle()
		proto.PutReader(fr)
		return nil, errors.New("first frame is not a hello")
	}
	reqID := f.ReqID
	f.Recycle()
	var e proto.Enc
	e.U64(boot)
	if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THelloAck, ReqID: reqID, Payload: e.Bytes()}); err != nil {
		proto.PutReader(fr)
		return nil, err
	}
	return fr, nil
}

// TestPipelineOutOfOrderCompletion drives four raw calls through the
// coalescer, has the peer push an approval request before answering,
// then answers in reverse order. Every future must resolve to its own
// reply regardless of Wait order, and the push must be approved and
// fenced (invalidation counted) while the replies are still in flight.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	cn, sn := net.Pipe()
	const calls = 4
	approved := make(chan proto.ApprovalWire, 1)
	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			fr, err := serveHello(sn, 1)
			if err != nil {
				return err
			}
			defer proto.PutReader(fr)
			reqs := make([]proto.Frame, 0, calls)
			for len(reqs) < calls {
				f, err := fr.Next()
				if err != nil {
					return err
				}
				reqs = append(reqs, f)
			}
			// Interleave: a write callback lands before any reply.
			var e proto.Enc
			e.EncodeApproval(proto.ApprovalWire{WriteID: 7, Datum: vfs.Datum{Kind: vfs.FileData, Node: 42}})
			if err := proto.WriteFrame(sn, proto.Frame{Type: proto.TApprovalReq, Payload: e.Bytes()}); err != nil {
				return err
			}
			// Answer newest-first, echoing each request's payload so the
			// client can check the demux matched reply to request.
			for i := len(reqs) - 1; i >= 0; i-- {
				f := reqs[i]
				if err := proto.WriteFrame(sn, proto.Frame{Type: proto.TStatRep, ReqID: f.ReqID, Payload: f.Payload}); err != nil {
					return err
				}
				f.Recycle()
			}
			// The push must come back approved through the same pipe.
			for {
				f, err := fr.Next()
				if err != nil {
					return err
				}
				if f.Type == proto.TApprove {
					approved <- proto.NewDec(f.Payload).DecodeApprove()
					f.Recycle()
					return nil
				}
				f.Recycle()
			}
		}()
	}()

	c, err := NewFromConn(cn, Config{ID: "ooo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	futures := make([]*Call, calls)
	for i := range futures {
		var e proto.Enc
		e.U64(uint64(100 + i))
		futures[i] = c.startCall(proto.TStat, e.Bytes())
	}
	for _, i := range []int{2, 0, 3, 1} {
		f, err := futures[i].Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := proto.NewDec(f.Payload).U64(); got != uint64(100+i) {
			t.Fatalf("call %d resolved with reply %d", i, got)
		}
		f.Recycle()
	}
	select {
	case a := <-approved:
		if a.WriteID != 7 {
			t.Fatalf("approved write %d, want 7", a.WriteID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("approval never reached the peer")
	}
	if err := <-scriptErr; err != nil {
		t.Fatalf("script: %v", err)
	}
	if inv := c.Metrics().Invalidations; inv != 1 {
		t.Fatalf("Invalidations = %d, want 1", inv)
	}
}

// pipeRedialer hands each Redial a fresh net.Pipe and exposes the
// server ends to the test's script goroutine.
type pipeRedialer struct {
	conns chan net.Conn
}

func newPipeRedialer() *pipeRedialer { return &pipeRedialer{conns: make(chan net.Conn, 4)} }

func (p *pipeRedialer) redial() (net.Conn, error) {
	cn, sn := net.Pipe()
	p.conns <- sn
	return cn, nil
}

// TestPipelineInFlightReplayedAcrossReconnect kills the connection with
// a request in flight (read but never answered). With the session layer
// on and a retry budget, Wait must resubmit the request on the
// reconnected session and succeed.
func TestPipelineInFlightReplayedAcrossReconnect(t *testing.T) {
	cn1, sn1 := net.Pipe()
	redialer := newPipeRedialer()
	scriptErr := make(chan error, 2)
	// Round 1: ack the hello, swallow one request, drop the connection.
	go func() {
		scriptErr <- func() error {
			fr, err := serveHello(sn1, 1)
			if err != nil {
				return err
			}
			defer proto.PutReader(fr)
			f, err := fr.Next()
			if err != nil {
				return err
			}
			f.Recycle()
			return sn1.Close()
		}()
	}()
	// Round 2: ack the re-hello, answer the resubmitted request.
	go func() {
		scriptErr <- func() error {
			sn := <-redialer.conns
			fr, err := serveHello(sn, 1)
			if err != nil {
				return err
			}
			defer proto.PutReader(fr)
			f, err := fr.Next()
			if err != nil {
				return err
			}
			reqID := f.ReqID
			f.Recycle()
			return proto.WriteFrame(sn, proto.Frame{Type: proto.TOK, ReqID: reqID})
		}()
	}()

	c, err := NewFromConn(cn1, Config{
		ID: "replay", Reconnect: true, Redial: redialer.redial,
		ReconnectBackoff: 5 * time.Millisecond, RetryWait: 5 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	var e proto.Enc
	e.U64(9)
	cl := c.startCall(proto.TStat, e.Bytes())
	if _, err := cl.Wait(); err != nil {
		t.Fatalf("Wait after reconnect: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-scriptErr; err != nil {
			t.Fatalf("script: %v", err)
		}
	}
	if rc := c.Metrics().Reconnects; rc != 1 {
		t.Fatalf("Reconnects = %d, want 1", rc)
	}
}

// TestPipelineInFlightFailsWithNegativeBudget is the same schedule with
// retries disabled: the in-flight future must fail with ErrClosed
// instead of riding the reconnect.
func TestPipelineInFlightFailsWithNegativeBudget(t *testing.T) {
	cn1, sn1 := net.Pipe()
	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			fr, err := serveHello(sn1, 1)
			if err != nil {
				return err
			}
			defer proto.PutReader(fr)
			f, err := fr.Next()
			if err != nil {
				return err
			}
			f.Recycle()
			return sn1.Close()
		}()
	}()

	c, err := NewFromConn(cn1, Config{
		ID: "nobudget", Reconnect: true, RetryBudget: -1,
		Redial:           func() (net.Conn, error) { return nil, errors.New("dial refused") },
		ReconnectBackoff: 5 * time.Millisecond, RetryWait: time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	var e proto.Enc
	e.U64(9)
	cl := c.startCall(proto.TStat, e.Bytes())
	if _, err := cl.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Wait = %v, want ErrClosed", err)
	}
	if err := <-scriptErr; err != nil {
		t.Fatalf("script: %v", err)
	}
	if rc := c.Metrics().Reconnects; rc != 0 {
		t.Fatalf("Reconnects = %d, want 0", rc)
	}
}
