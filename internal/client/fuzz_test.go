package client_test

import (
	"bufio"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// FuzzSessionResume drives a cache through a scripted fake server over
// net.Pipe: each input byte picks how the server treats the next
// request — reply normally, push an invalidation before a reply
// composed earlier (the grant-reply/approval-push reorder), sever the
// connection mid-request, return an error, bump the boot ID for the
// next hello, or send a garbage reply. Invariants, whatever the
// stream: the client never panics or deadlocks, and it never serves a
// pre-invalidation value from cache — a read that overlaps no
// invalidation must return exactly the server's current generation.
//
// The fake server mutates the file's generation ONLY inside the push
// action, and the push always precedes the stale reply on the same
// in-order connection, so by the time an overlapping Read returns, the
// client has already processed the invalidation. A read with no
// overlapping push therefore has exactly one correct answer.

// fuzz action codes, one per request, taken from the input bytes.
const (
	actNormal  = iota // serve the current generation with a lease
	actPush           // invalidate + bump gen, then reply with the old gen
	actSever          // close the connection without replying
	actError          // reply TError
	actBoot           // bump the boot ID for future hellos, reply normally
	actGarbage        // reply with an undecodable payload
	actCount
)

const fuzzFileNode = vfs.NodeID(2)

// fuzzServer is a scripted single-file lease server over arbitrary
// net.Conns. It is deliberately independent of internal/server: the
// fuzz target tests the client's session layer against a peer that
// misbehaves in ways the real server never would.
type fuzzServer struct {
	mu      sync.Mutex
	script  []byte
	cursor  int
	gen     uint64 // current file generation; contents are "gen=N"
	pushes  uint64 // invalidation pushes issued
	boot    uint64
	writeID uint64
}

func (s *fuzzServer) state() (gen, pushes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, s.pushes
}

func (s *fuzzServer) nextAction() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cursor >= len(s.script) {
		return actNormal
	}
	b := s.script[s.cursor]
	s.cursor++
	return int(b) % actCount
}

func (s *fuzzServer) attr(gen uint64) vfs.Attr {
	return vfs.Attr{ID: fuzzFileNode, Name: "f", Size: 8, Owner: "root",
		Perm: vfs.DefaultPerm | vfs.WorldWrite, Version: gen}
}

func fuzzPayload(gen uint64) []byte { return []byte("gen=" + strconv.FormatUint(gen, 10)) }

// serve handles one connection: a reader goroutine parses requests and
// enqueues replies; a writer goroutine drains the outbox. net.Pipe is
// synchronous, so replies and pushes must never be written from the
// reader — the client's read loop blocks writing TApprove until our
// reader consumes it, and a reader stuck writing would deadlock.
func (s *fuzzServer) serve(nc net.Conn) {
	out := make(chan proto.Frame, 256)
	done := make(chan struct{})
	go func() { // writer
		for {
			select {
			case f := <-out:
				if proto.WriteFrame(nc, f) != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()
	go func() { // reader
		defer nc.Close()
		defer close(done)
		br := bufio.NewReader(nc)
		for {
			f, err := proto.ReadFrame(br)
			if err != nil {
				return
			}
			if !s.handle(f, out) {
				return
			}
		}
	}()
}

// handle processes one request; returning false severs the connection.
func (s *fuzzServer) handle(f proto.Frame, out chan<- proto.Frame) bool {
	reply := func(t proto.MsgType, payload []byte) {
		out <- proto.Frame{Type: t, ReqID: f.ReqID, Payload: payload}
	}
	switch f.Type {
	case proto.THello:
		s.mu.Lock()
		boot := s.boot
		s.mu.Unlock()
		var e proto.Enc
		e.U64(boot)
		reply(proto.THelloAck, e.Bytes())
	case proto.TRead:
		// Every successful reply names the file under a leased root
		// binding, so the first read of a session is path-addressed and
		// the ones after it go out by node.
		d := vfs.Datum{Kind: vfs.FileData, Node: fuzzFileNode}
		chain := []vfs.Edge{{Dir: vfs.RootID, Child: fuzzFileNode}}
		root := proto.GrantWire{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: vfs.RootID}, Term: time.Minute, Version: 1, Leased: true}
		switch s.nextAction() {
		case actPush:
			// Compose the reply at the current generation, then let a
			// conflicting write invalidate and apply before the reply is
			// delivered. In-order delivery guarantees the client sees
			// the push first; the fence must keep the reply out of the
			// cache.
			s.mu.Lock()
			old := s.gen
			s.gen++
			s.pushes++
			s.writeID++
			wid := s.writeID
			s.mu.Unlock()
			var p proto.Enc
			p.EncodeApproval(proto.ApprovalWire{WriteID: core.WriteID(wid), Datum: d})
			out <- proto.Frame{Type: proto.TApprovalReq, Payload: p.Bytes()}
			var e proto.Enc
			e.Attr(s.attr(old)).EncodeChain(chain).EncodeGrants([]proto.GrantWire{root,
				{Datum: d, Term: time.Minute, Version: old, Leased: true}}).Blob(fuzzPayload(old)).EncodeGrants(nil).EncodeRefills(nil)
			reply(proto.TReadRep, e.Bytes())
		case actSever:
			return false
		case actError:
			var e proto.Enc
			e.Str("scripted failure")
			reply(proto.TError, e.Bytes())
		case actGarbage:
			reply(proto.TReadRep, []byte{0xde, 0xad})
		case actBoot:
			s.mu.Lock()
			s.boot++
			s.mu.Unlock()
			fallthrough
		default:
			s.mu.Lock()
			gen := s.gen
			s.mu.Unlock()
			var e proto.Enc
			e.Attr(s.attr(gen)).EncodeChain(chain).EncodeGrants([]proto.GrantWire{root,
				{Datum: d, Term: time.Minute, Version: gen, Leased: true}}).Blob(fuzzPayload(gen)).EncodeGrants(nil).EncodeRefills(nil)
			reply(proto.TReadRep, e.Bytes())
		}
	case proto.TApprove, proto.TExtend:
		if f.Type == proto.TExtend {
			var e proto.Enc
			e.EncodeGrants(nil)
			reply(proto.TExtendRep, e.Bytes())
		}
	default:
		// TRelease on Close and anything else: empty success, so a
		// closing client is never stranded waiting for its release ack.
		reply(proto.TOK, nil)
	}
	return true
}

func parseGen(data []byte) (uint64, bool) {
	s := string(data)
	if len(s) < 5 || s[:4] != "gen=" {
		return 0, false
	}
	n, err := strconv.ParseUint(s[4:], 10, 64)
	return n, err == nil
}

func FuzzSessionResume(f *testing.F) {
	f.Add([]byte{actNormal, actNormal, actNormal, actNormal})
	f.Add([]byte{actPush, actNormal, actPush, actNormal, actPush, actNormal})
	f.Add([]byte{actSever, actNormal, actBoot, actSever, actBoot, actNormal})
	f.Add([]byte{actNormal, actPush, actSever, actError, actBoot, actGarbage, actNormal, actPush})
	f.Add([]byte{actGarbage, actError, actGarbage, actSever, actPush, actPush, actNormal})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		srv := &fuzzServer{script: data}
		redial := func() (net.Conn, error) {
			cc, sc := net.Pipe()
			srv.serve(sc)
			return cc, nil
		}
		nc, _ := redial()
		c, err := client.NewFromConn(nc, client.Config{
			ID:                  "fuzz",
			Reconnect:           true,
			ReconnectBackoff:    time.Millisecond,
			ReconnectMaxBackoff: 5 * time.Millisecond,
			RetryWait:           250 * time.Millisecond,
			DialTimeout:         time.Second,
			Seed:                1,
			Redial:              redial,
		})
		if err != nil {
			t.Fatalf("hello over fresh pipe: %v", err)
		}

		for i := 0; i < len(data)+2; i++ {
			genBefore, pushesBefore := srv.state()
			val, err := c.Read("/f")
			if err != nil {
				continue // severed/error/garbage paths surface here
			}
			gen, ok := parseGen(val)
			genAfter, pushesAfter := srv.state()
			if !ok {
				t.Fatalf("read %d returned unparseable %q", i, val)
			}
			if gen > genAfter {
				t.Fatalf("read %d returned gen %d from the future (server at %d)", i, gen, genAfter)
			}
			if pushesBefore == pushesAfter && gen != genBefore {
				// No invalidation overlapped this read, so there is
				// exactly one correct answer; anything older means a
				// pre-invalidation reply was cached.
				t.Fatalf("read %d returned gen %d, want %d (no overlapping invalidation; stale cache?)",
					i, gen, genBefore)
			}
		}

		// Land the session in a connected state (reconnects settle in a
		// few ms — the fake server always accepts), then shut down.
		for i := 0; i < 200; i++ {
			if _, err := c.Read("/f"); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		c.Close()
	})
}
