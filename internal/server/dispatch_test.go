package server_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// pipeListener serves in-memory connections, so a test decides what each
// Read delivers and sees each Write: a net.Pipe does no buffering, one
// Write on an end is what one (large enough) Read on the other returns.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// gidConn is the server's end of a pipe; it notes which goroutine reads
// from it and whether its last write was that goroutine's. (The test
// looks once the write has reached it, which the pipe orders after.)
type gidConn struct {
	net.Conn
	readBy, by   [24]byte
	wroteByOther string
}

func (c *gidConn) Read(p []byte) (int, error) {
	runtime.Stack(c.readBy[:], false) // "goroutine N [running]:…"
	return c.Conn.Read(p)
}

func (c *gidConn) Write(p []byte) (int, error) {
	if runtime.Stack(c.by[:], false); c.by != c.readBy {
		c.wroteByOther = string(c.by[:])
	} else {
		c.wroteByOther = ""
	}
	return c.Conn.Write(p)
}

// startPipeServer serves in-memory connections; connect returns the
// client's end of a new one and the server's.
func startPipeServer(t *testing.T, cfg server.Config) (srv *server.Server, connect func() (net.Conn, *gidConn)) {
	t.Helper()
	srv = server.New(cfg)
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Stop()
		<-served
	})
	return srv, func() (net.Conn, *gidConn) {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close() })
		sc := &gidConn{Conn: far}
		ln.conns <- sc
		return near, sc
	}
}

// hello opens a raw-protocol session on nc.
func hello(t *testing.T, nc net.Conn, id string) {
	t.Helper()
	var e proto.Enc
	e.Str(id)
	if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if rep, err := proto.ReadFrame(nc); err != nil || rep.Type != proto.THelloAck {
		t.Fatalf("hello as %s: %v %v", id, rep.Type, err)
	}
}

func frame(t *testing.T, typ proto.MsgType, id uint64, fill func(*proto.Enc)) []byte {
	t.Helper()
	var e proto.Enc
	fill(&e)
	b, err := proto.AppendFrame(nil, proto.Frame{Type: typ, ReqID: id, Payload: e.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// within fails the test unless f returns in time: what a request stuck
// behind a parked one would not.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: not done after 10s", what)
	}
}

// TestBurstAnsweredByOneWrite: k requests that one Read delivered are
// answered by one Write carrying k replies in order — the reader holds
// the flush while whole requests are buffered — and a lone request is
// answered at once.
func TestBurstAnsweredByOneWrite(t *testing.T) {
	srv, connect := startPipeServer(t, server.Config{Term: time.Minute})
	node := seedWritable(t, srv, "/f", "x")
	nc, _ := connect()
	hello(t, nc, "burst")

	const k = 5
	buf := make([]byte, 64<<10)
	for _, n := range []int{1, k, 1} {
		var burst []byte
		for id := uint64(1); id <= uint64(n); id++ {
			burst = append(burst, frame(t, proto.TStat, id, func(e *proto.Enc) { e.U64(uint64(node)) })...)
		}
		within(t, fmt.Sprintf("a burst of %d", n), func() {
			if _, err := nc.Write(burst); err != nil {
				t.Error(err)
			}
		})
		var got int
		within(t, "the reply", func() { got, _ = nc.Read(buf) })
		r := bytes.NewReader(buf[:got])
		for id := uint64(1); id <= uint64(n); id++ {
			f, err := proto.ReadFrame(r)
			if err != nil || f.Type != proto.TStatRep || f.ReqID != id {
				t.Fatalf("burst of %d, reply %d of the first write (%d bytes): %v %d %v", n, id, got, f.Type, f.ReqID, err)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("burst of %d: %d bytes after its %d replies", n, r.Len(), n)
		}
	}
}

// TestAllocFreeInlineDispatch: a request that does not wait is served by
// the goroutine that read it — no goroutine, closure, plan or encoder is
// allocated for it — so a read of a leased file costs the copy of its
// contents, an unshared write the two copies of its payload (the decoded
// one, the store's) and an extension its two lists.
func TestAllocFreeInlineDispatch(t *testing.T) {
	srv, connect := startPipeServer(t, server.Config{Term: time.Minute})
	node := seedWritable(t, srv, "/f", "x")
	nc, sc := connect()
	hello(t, nc, "inline")
	buf := make([]byte, 4<<10)
	for _, tc := range []struct {
		name  string
		req   []byte
		reply proto.MsgType
		want  float64
	}{
		{"read", frame(t, proto.TRead, 2, func(e *proto.Enc) { e.U64(uint64(node)).Str("").EncodeData(nil) }), proto.TReadRep, 1},
		{"write", frame(t, proto.TWrite, 3, func(e *proto.Enc) { e.U64(uint64(node)).Blob(make([]byte, 1024)).EncodeData(nil) }), proto.TWriteRep, 2},
		{"extend", frame(t, proto.TExtend, 4, func(e *proto.Enc) {
			e.U32(1).Datum(vfs.Datum{Kind: vfs.FileData, Node: node})
		}), proto.TExtendRep, 2},
	} {
		n := testing.AllocsPerRun(200, func() {
			if _, err := nc.Write(tc.req); err != nil {
				t.Fatal(err)
			}
			if n, err := nc.Read(buf); err != nil || proto.MsgType(buf[4]) != tc.reply {
				t.Fatalf("%s: reply type %d (%d bytes), %v", tc.name, buf[4], n, err)
			}
		})
		if n > tc.want {
			t.Errorf("serving a %s allocates %v times, want %v", tc.name, n, tc.want)
		}
		if sc.wroteByOther != "" {
			t.Errorf("%s: answered by %q, not the goroutine that read it", tc.name, sc.wroteByOther)
		}
	}
}

// parkFixture is a server on a simulated clock with /held leased to a
// client that will never approve: a write to /held parks until the clock
// passes the term.
func parkFixture(t *testing.T) (srv *server.Server, clk *clock.Sim, connect func() (net.Conn, *gidConn), held vfs.NodeID) {
	t.Helper()
	clk = clock.NewSim()
	srv, connect = startPipeServer(t, server.Config{Term: parkTerm, Clock: clk})
	held = seedWritable(t, srv, "/held", "old")
	muteHolder(t, connect, vfs.Datum{Kind: vfs.FileData, Node: held})
	return srv, clk, connect, held
}

// muteHolder leases d — a file's data, or a directory's binding — to a
// raw-protocol client that never approves a write.
func muteHolder(t *testing.T, connect func() (net.Conn, *gidConn), d vfs.Datum) {
	t.Helper()
	holder, _ := connect()
	hello(t, holder, "holder")
	req, want := frame(t, proto.TRead, 2, func(e *proto.Enc) { e.U64(uint64(d.Node)).Str("").EncodeData(nil) }), proto.TReadRep
	if d.Kind == vfs.DirBinding {
		req, want = frame(t, proto.TReadDir, 2, func(e *proto.Enc) { e.U64(uint64(d.Node)) }), proto.TReadDirRep
	}
	if _, err := holder.Write(req); err != nil {
		t.Fatal(err)
	}
	if rep, err := proto.ReadFrame(holder); err != nil || rep.Type != want {
		t.Fatalf("holder's read: %v %v", rep.Type, err)
	}
	go func() { // the approval request it will never answer
		for {
			if _, err := proto.ReadFrame(holder); err != nil {
				return
			}
		}
	}()
}

const parkTerm = 10 * time.Second

// lurchClock is a simulated clock that jumps ahead by its lurch inside
// the next After, before it arms the timer: a clock that moves between a
// caller's reading of Now and its arming.
type lurchClock struct {
	*clock.Sim
	lurch atomic.Int64
}

func (c *lurchClock) After(d time.Duration) (<-chan time.Time, func() bool) {
	c.Advance(time.Duration(c.lurch.Swap(0)))
	return c.Sim.After(d)
}

// TestParkedWriteWakesAtItsInstant: a write parked behind a mute holder
// wakes as soon as the holder's lease has run out, even if the clock
// moved while the server armed its wake timer.
func TestParkedWriteWakesAtItsInstant(t *testing.T) {
	clk := &lurchClock{Sim: clock.NewSim()}
	srv, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk})
	held := seedWritable(t, srv, "/held", "old")
	muteHolder(t, connect, vfs.Datum{Kind: vfs.FileData, Node: held})
	expiry := clk.Now().Add(parkTerm)
	nc, _ := connect()
	hello(t, nc, "writer")
	clk.lurch.Store(int64(parkTerm / 2))
	done := startWrite(t, nc, held, "new")
	waitFor(t, "the wake timer", func() bool { return clk.PendingTimers() == 1 })
	clk.AdvanceTo(expiry.Add(time.Nanosecond)) // a lease is valid through its expiry
	within(t, "the parked write, once the holder's lease ran out", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}

// TestParkedWriteBlocksOnlyItself: behind a write parked on another
// client's lease, the same connection's read is answered, and so is the
// approval it owes a third client's write — the reader went on reading.
func TestParkedWriteBlocksOnlyItself(t *testing.T) {
	srv, clk, connect, held := parkFixture(t)
	seedWritable(t, srv, "/mine", "m")
	seedWritable(t, srv, "/other", "o")
	dialPipe := func(id string) *client.Cache {
		nc, _ := connect()
		c, err := client.NewFromConn(nc, client.Config{ID: id, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	w, third := dialPipe("writer"), dialPipe("third")
	if _, err := w.Read("/mine"); err != nil { // the lease the third client's write will call back
		t.Fatal(err)
	}

	wc := w.StartWrite("/held", []byte("new"))
	waitFor(t, "the write to park", func() bool { return srv.Metrics().WritesDeferred >= 1 })
	rc := w.StartRead("/other")
	within(t, "a read pipelined behind the parked write", func() {
		if data, err := rc.Wait(); err != nil || string(data) != "o" {
			t.Errorf("read behind the parked write: %q, %v", data, err)
		}
	})
	within(t, "a write that needs the parked writer's approval", func() {
		if err := third.Write("/mine", []byte("m2")); err != nil {
			t.Error(err)
		}
	})
	if data, _, _ := srv.Store().ReadFile(held); string(data) != "old" {
		t.Fatalf("/held = %q with the holder's lease still running", data)
	}
	clk.Advance(parkTerm + time.Second)
	within(t, "the parked write, its blocker's lease run out", func() {
		if err := wc.Wait(); err != nil {
			t.Error(err)
		}
	})
	if data, _, _ := srv.Store().ReadFile(held); string(data) != "new" {
		t.Fatalf("/held = %q after the parked write", data)
	}
}

// TestParkedWriteLandsOnItsNode: a write parked behind a mute holder's
// lease on the file's data applies to the node it named, though a third
// client renamed the file meanwhile. The server replicates, so the write's
// op carries the path it had when it parked; the master applies by node.
func TestParkedWriteLandsOnItsNode(t *testing.T) {
	clk := clock.NewSim()
	srv, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk, Replica: gateReplica{}})
	srv.Promote(tracing.Context{}, nil, 0)
	node := seedWritable(t, srv, "/f", "old")
	muteHolder(t, connect, vfs.Datum{Kind: vfs.FileData, Node: node})

	writer, _ := connect()
	hello(t, writer, "writer")
	go writer.Write(frame(t, proto.TWrite, 2, func(e *proto.Enc) { e.U64(uint64(node)).Blob([]byte("new")).EncodeData(nil) }))
	waitFor(t, "the write to park", func() bool { return srv.Metrics().WritesDeferred >= 1 })

	renamer, _ := connect()
	hello(t, renamer, "renamer")
	go renamer.Write(frame(t, proto.TRename, 2, func(e *proto.Enc) { e.Str("/f").Str("/g") }))
	within(t, "the rename", func() {
		if rep, err := proto.ReadFrame(renamer); err != nil || rep.Type != proto.TOK {
			t.Errorf("the rename: %v %v", rep.Type, err)
		}
	})
	clk.Advance(parkTerm + time.Second)
	within(t, "the parked write", func() {
		if rep, err := proto.ReadFrame(writer); err != nil || rep.Type != proto.TWriteRep {
			t.Errorf("the parked write: %v %v", rep.Type, err)
		}
	})
	if a, err := srv.Store().Lookup("/g"); err != nil || a.ID != node {
		t.Fatalf("/g = %+v, %v; want node %d", a, err, node)
	}
	if data, _, _ := srv.Store().ReadFile(node); string(data) != "new" {
		t.Fatalf("the renamed file holds %q, want the parked write's %q", data, "new")
	}
}

// TestParkedWriteKeepsItsPayload: a parked write and eight more behind it,
// distinct 1 KiB payloads delivered by one Read, all land intact: what
// the parked request carries to its goroutine is no part of a buffer the
// reader goes on to fill.
func TestParkedWriteKeepsItsPayload(t *testing.T) {
	srv, clk, connect, held := parkFixture(t)
	nodes := []vfs.NodeID{held}
	for i := 1; i <= 8; i++ {
		nodes = append(nodes, seedWritable(t, srv, fmt.Sprintf("/f%d", i), ""))
	}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 1024) }
	var burst []byte
	for i, node := range nodes {
		burst = append(burst, frame(t, proto.TWrite, uint64(10+i), func(e *proto.Enc) { e.U64(uint64(node)).Blob(payload(i)).EncodeData(nil) })...)
	}
	nc, _ := connect()
	hello(t, nc, "writer")
	go nc.Write(burst)
	for want := uint64(11); want <= 18; want++ { // every reply but the parked write's
		var f proto.Frame
		within(t, "a write behind the parked one", func() { f, _ = proto.ReadFrame(nc) })
		if f.Type != proto.TWriteRep || f.ReqID != want {
			t.Fatalf("reply %v to request %d, want TWriteRep to %d", f.Type, f.ReqID, want)
		}
	}
	clk.Advance(parkTerm + time.Second)
	within(t, "the parked write", func() {
		if f, err := proto.ReadFrame(nc); err != nil || f.Type != proto.TWriteRep || f.ReqID != 10 {
			t.Errorf("the parked write's reply: %v to %d, %v", f.Type, f.ReqID, err)
		}
	})
	for i, node := range nodes {
		if data, _, _ := srv.Store().ReadFile(node); !bytes.Equal(data, payload(i)) {
			t.Errorf("file %d holds %.8q… (%d bytes), want %d × %q", i, data, len(data), 1024, 'a'+i)
		}
	}
}

// TestStuckClientDelaysOnlyItself: a client that stops reading its
// socket blocks the goroutine serving its connection in a write, and
// nothing else: other clients' reads are answered, a write its lease
// conflicts with waits out the term (§2) and no longer, and Stop returns.
// The stuck client's second read renews a live, uncontended lease, so
// that term is core.ReuseFactor terms.
func TestStuckClientDelaysOnlyItself(t *testing.T) {
	clk := clock.NewSim()
	srv, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk})
	node := seedWritable(t, srv, "/f", "old")
	stuck, _ := connect()
	hello(t, stuck, "stuck")
	read := frame(t, proto.TRead, 2, func(e *proto.Enc) { e.U64(uint64(node)).Str("").EncodeData(nil) })
	if _, err := stuck.Write(read); err != nil {
		t.Fatal(err)
	}
	if rep, err := proto.ReadFrame(stuck); err != nil || rep.Type != proto.TReadRep {
		t.Fatalf("the read that takes the lease: %v %v", rep.Type, err)
	}
	if _, err := stuck.Write(read); err != nil { // never read: the pipe buffers nothing
		t.Fatal(err)
	}
	stretched := clk.Now().Add(core.ReuseFactor * parkTerm)
	stuckUntil := func() (exp time.Time) {
		for _, l := range srv.Snapshot() {
			if l.Client == "stuck" {
				exp = l.Expiry
			}
		}
		return exp
	}
	waitFor(t, "the renewal", func() bool { return stuckUntil().Equal(stretched) })

	nc, _ := connect()
	other, err := client.NewFromConn(nc, client.Config{ID: "other", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	within(t, "another client's read", func() {
		if _, err := other.Read("/f"); err != nil {
			t.Error(err)
		}
	})
	wc := other.StartWrite("/f", []byte("new"))
	waitFor(t, "the conflicting write to defer", func() bool { return srv.Metrics().WritesDeferred >= 1 })
	done := make(chan error, 1)
	go func() { done <- wc.Wait() }()
	clk.Advance(parkTerm + time.Second)
	if !stuckUntil().Equal(stretched) {
		t.Fatalf("one term on, the stuck client's lease runs to %v, want %v", stuckUntil(), stretched)
	}
	select {
	case err := <-done:
		t.Fatalf("the conflicting write finished inside the renewed lease: %v", err)
	default:
	}
	clk.Advance((core.ReuseFactor - 1) * parkTerm)
	within(t, "the conflicting write, once the stuck client's lease ran out", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	within(t, "Stop", srv.Stop)
}

// TestSilentClientClosedAtHelloDeadline: a connection that never sends
// its hello is closed once the hello deadline (5 s) passes, and holds
// nothing up meanwhile: another client is served, and a hello with bytes
// after the ID (what a load harness's readiness probe sends) is acked
// with the boot ID alone.
func TestSilentClientClosedAtHelloDeadline(t *testing.T) {
	srv, connect := startPipeServer(t, server.Config{Term: time.Minute})
	seedWritable(t, srv, "/f", "x")
	silent, _ := connect()
	closed := make(chan error, 1)
	go func() {
		_, err := silent.Read(make([]byte, 1))
		closed <- err
	}()

	probe, _ := connect()
	var e proto.Enc
	e.Str("probe").U64(0)
	if err := proto.WriteFrame(probe, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()}); err != nil {
		t.Fatal(err)
	}
	within(t, "the probe's ack", func() {
		if rep, err := proto.ReadFrame(probe); err != nil || rep.Type != proto.THelloAck || len(rep.Payload) != 8 {
			t.Errorf("probe hello answered %v %x, %v; want an 8-byte THelloAck", rep.Type, rep.Payload, err)
		}
	})
	nc, _ := connect()
	other, err := client.NewFromConn(nc, client.Config{ID: "other"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	within(t, "another client's read", func() {
		if _, err := other.Read("/f"); err != nil {
			t.Error(err)
		}
	})

	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("the silent connection was sent a byte")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the silent connection is still open 10 s after it was accepted")
	}
}

// TestHostileDatumCountCostsNothing: a TExtend or TRelease whose 4-byte
// payload claims 65,536 data is refused before a list is sized from the
// claim.
func TestHostileDatumCountCostsNothing(t *testing.T) {
	_, connect := startPipeServer(t, server.Config{Term: time.Minute})
	nc, _ := connect()
	hello(t, nc, "hostile")
	buf := make([]byte, 4<<10)
	for _, typ := range []proto.MsgType{proto.TExtend, proto.TRelease} {
		req := frame(t, typ, 2, func(e *proto.Enc) { e.U32(1 << 16) })
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := nc.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Read(buf); err != nil || proto.MsgType(buf[4]) != proto.TError {
				t.Fatalf("%v: reply type %d, %v; want an error", typ, buf[4], err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 64<<10 {
			t.Errorf("refusing a %v of 65,536 claimed data allocates %d bytes", typ, per)
		}
	}
}
