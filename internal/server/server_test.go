package server_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// startServer launches a server on a loopback listener and returns it
// with its address and a cleanup.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ln)
	}()
	t.Cleanup(func() {
		s.Stop()
		<-done
	})
	return s, ln.Addr().String()
}

func dial(t *testing.T, addr, id string, cfg client.Config) *client.Cache {
	t.Helper()
	cfg.ID = id
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial %s: %v", id, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEndToEndFileOperations(t *testing.T) {
	_, addr := startServer(t, server.Config{Term: 10 * time.Second})
	c := dial(t, addr, "c1", client.Config{})

	if _, err := c.Mkdir("/docs", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, err := c.Create("/docs/paper.tex", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Write("/docs/paper.tex", []byte("\\documentclass{article}")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, err := c.Read("/docs/paper.tex")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(data) != "\\documentclass{article}" {
		t.Fatalf("Read = %q", data)
	}
	entries, err := c.ReadDir("/docs")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name != "paper.tex" {
		t.Fatalf("ReadDir = %v", entries)
	}
	if err := c.Rename("/docs/paper.tex", "/docs/final.tex"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := c.Read("/docs/paper.tex"); err == nil {
		t.Fatal("old name still readable after rename")
	}
	if data, err := c.Read("/docs/final.tex"); err != nil || string(data) == "" {
		t.Fatalf("new name: %v %q", err, data)
	}
	if err := c.Remove("/docs/final.tex"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := c.Remove("/docs"); err != nil {
		t.Fatalf("Remove dir: %v", err)
	}
}

// Repeated reads are served from the cache while its lease lasts; a
// zero-term server grants none, so every read is one TRead.
func TestRepeatedReadServedFromCache(t *testing.T) {
	for _, term := range []time.Duration{30 * time.Second, 0} {
		t.Run(term.String(), func(t *testing.T) {
			srv, addr := startServer(t, server.Config{Term: term})
			srv.Store().Create("/latex", "root", vfs.DefaultPerm)
			srv.Store().WriteFile(2, []byte("binary"))
			c := dial(t, addr, "c1", client.Config{})

			for i := 0; i < 10; i++ {
				if _, err := c.Read("/latex"); err != nil {
					t.Fatalf("Read %d: %v", i, err)
				}
			}
			m := c.Metrics()
			if m.Reads != 10 {
				t.Fatalf("Reads = %d", m.Reads)
			}
			if term == 0 {
				if m.ReadHits != 0 {
					t.Fatalf("ReadHits = %d under a zero term, want 0", m.ReadHits)
				}
				if n := c.WireStats().Frames(proto.TRead, "out"); n != 10 {
					t.Fatalf("%d TRead frames for 10 zero-term reads, want 10", n)
				}
				return
			}
			if m.ReadHits < 9 {
				t.Fatalf("ReadHits = %d, want ≥9 — the cache is not serving under its lease", m.ReadHits)
			}
			if m.LookupHits < 9 {
				t.Fatalf("LookupHits = %d, want ≥9 — repeated opens should use the cached binding", m.LookupHits)
			}
		})
	}
}

func TestWriteCallbackInvalidatesOtherClient(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 30 * time.Second})
	srv.Store().Create("/shared", "root", vfs.DefaultPerm|vfs.WorldWrite)
	reader := dial(t, addr, "reader", client.Config{})
	writer := dial(t, addr, "writer", client.Config{})

	if _, err := reader.Read("/shared"); err != nil {
		t.Fatalf("reader Read: %v", err)
	}
	start := time.Now()
	if err := writer.Write("/shared", []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("write with reachable holder took %v — approval callback is not working", took)
	}
	// The reader must now refetch and see the new contents (its copy
	// was invalidated by the approval it granted).
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := reader.Read("/shared")
		if err != nil {
			t.Fatalf("reader re-Read: %v", err)
		}
		if string(data) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader still sees %q after write", data)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inv := reader.Metrics().Invalidations; inv == 0 {
		t.Fatal("reader recorded no invalidations")
	}
}

func TestWriteWaitsOutUnreachableHolder(t *testing.T) {
	const term = 700 * time.Millisecond
	srv, addr := startServer(t, server.Config{Term: term})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)

	// The holder connects, reads (taking a lease), then vanishes
	// without releasing — a crash.
	holder, err := client.Dial(addr, client.Config{ID: "holder"})
	if err != nil {
		t.Fatalf("dial holder: %v", err)
	}
	if _, err := holder.Read("/f"); err != nil {
		t.Fatalf("holder Read: %v", err)
	}
	leaseTaken := time.Now()
	// Abrupt close: no Release (Close would release; simulate crash by
	// closing the raw connection path — Close here releases, so instead
	// we test with a client whose releases we suppress by killing the
	// server's view... simplest: close and rely on release failing).
	// client.Close sends TRelease; to model a crash, use a raw conn.
	holder.Close()

	// A fresh raw-protocol "crashed" holder: handshake, read, vanish.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	var e proto.Enc
	e.Str("crasher")
	proto.WriteFrame(raw, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()})
	proto.ReadFrame(raw) // hello ack
	var e2 proto.Enc
	e2.U64(2).Str("").EncodeData(nil) // node of /f
	proto.WriteFrame(raw, proto.Frame{Type: proto.TRead, ReqID: 2, Payload: e2.Bytes()})
	if _, err := proto.ReadFrame(raw); err != nil {
		t.Fatalf("raw read reply: %v", err)
	}
	leaseTaken = time.Now()
	raw.Close() // crash: lease survives at the server

	writer := dial(t, addr, "writer", client.Config{})
	start := time.Now()
	if err := writer.Write("/f", []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	took := time.Since(start)
	remaining := term - time.Since(leaseTaken) // ≈ how long it had to wait
	_ = remaining
	if took < 300*time.Millisecond {
		t.Fatalf("write completed in %v — crashed holder's lease was not honoured", took)
	}
	if took > term+2*time.Second {
		t.Fatalf("write took %v — far beyond the lease term", took)
	}
}

func TestCleanCloseReleasesLeases(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Hour})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)

	holder := dial(t, addr, "holder", client.Config{})
	if _, err := holder.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	holder.Close() // releases the hour-long lease

	writer := dial(t, addr, "writer", client.Config{})
	start := time.Now()
	if err := writer.Write("/f", []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("write after clean release took %v", took)
	}
}

func TestBindingMutationDefersOnDirLease(t *testing.T) {
	const term = 700 * time.Millisecond
	srv, addr := startServer(t, server.Config{Term: term})
	srv.Store().Mkdir("/dir", "root", vfs.DefaultPerm|vfs.WorldWrite)

	// A raw client takes a lease on /dir's binding (via ReadDir), then
	// crashes.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	var e proto.Enc
	e.Str("crasher")
	proto.WriteFrame(raw, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()})
	proto.ReadFrame(raw)
	var e2 proto.Enc
	e2.U64(2) // node of /dir
	proto.WriteFrame(raw, proto.Frame{Type: proto.TReadDir, ReqID: 2, Payload: e2.Bytes()})
	if _, err := proto.ReadFrame(raw); err != nil {
		t.Fatalf("raw readdir: %v", err)
	}
	raw.Close()

	// Creating a file in /dir is a write to its binding: it must wait
	// out the crashed holder's lease.
	c := dial(t, addr, "creator", client.Config{})
	start := time.Now()
	if _, err := c.Create("/dir/new", vfs.DefaultPerm); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if took := time.Since(start); took < 300*time.Millisecond {
		t.Fatalf("binding mutation completed in %v — directory lease not honoured (renames/creates are writes too)", took)
	}
}

// A remove and a rename are writes to the file they unbind: a client
// without write access on another client's owner-only file can do
// neither, in place or not, and the file stays as it was.
func TestRemoveAndRenameNeedWriteAccess(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 10 * time.Second})
	srv.Store().Mkdir("/docs", "root", vfs.DefaultPerm|vfs.WorldWrite)
	owner := dial(t, addr, "owner", client.Config{})
	if _, err := owner.Create("/docs/f", vfs.DefaultPerm); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := owner.Write("/docs/f", []byte("mine")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	other := dial(t, addr, "other", client.Config{})
	if err := other.Remove("/docs/f"); !errors.Is(err, client.ErrRemote) {
		t.Errorf("a remove without write access: %v, want a refusal", err)
	}
	if err := other.Rename("/docs/f", "/docs/g"); !errors.Is(err, client.ErrRemote) {
		t.Errorf("a rename in place without write access: %v, want a refusal", err)
	}
	a, err := srv.Store().Lookup("/docs/f")
	if err != nil {
		t.Fatalf("the file is gone: %v", err)
	}
	if data, _, err := srv.Store().ReadFile(a.ID); err != nil || string(data) != "mine" || a.Owner != "owner" {
		t.Fatalf("the file is %q owned by %s (%v), want %q owned by owner", data, a.Owner, err, "mine")
	}
	if _, err := srv.Store().Lookup("/docs/g"); err == nil {
		t.Fatal("the refused rename bound the new name")
	}
}

func TestRecoveryWindowDelaysWrites(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term:           time.Minute,
		RecoveryWindow: time.Second,
	})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)
	c := dial(t, addr, "c1", client.Config{})

	// Reads work during recovery.
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read during recovery: %v", err)
	}
	start := time.Now()
	if err := c.Write("/f", []byte("post-crash")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if took := time.Since(start); took < 500*time.Millisecond {
		t.Fatalf("write during recovery window completed in %v — pre-crash leases could be violated", took)
	}
}

func TestWriteTimeoutFailsBlockedWrite(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term:         time.Hour,
		WriteTimeout: 500 * time.Millisecond,
	})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)

	// A raw holder that takes a lease and ignores approval pushes.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	var e proto.Enc
	e.Str("mute-holder")
	proto.WriteFrame(raw, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()})
	proto.ReadFrame(raw)
	var e2 proto.Enc
	e2.U64(2).Str("").EncodeData(nil)
	proto.WriteFrame(raw, proto.Frame{Type: proto.TRead, ReqID: 2, Payload: e2.Bytes()})
	proto.ReadFrame(raw)
	// Keep the connection open but never answer pushes.

	writer := dial(t, addr, "writer", client.Config{})
	err = writer.Write("/f", []byte("v2"))
	if err == nil {
		t.Fatal("write succeeded despite mute holder with hour-long lease")
	}
	if !errors.Is(err, client.ErrRemote) {
		t.Fatalf("err = %v, want remote error", err)
	}
}

func TestConcurrentClientsRace(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 300 * time.Millisecond})
	for i := 0; i < 4; i++ {
		srv.Store().Create(fmt.Sprintf("/f%d", i), "root", vfs.DefaultPerm|vfs.WorldWrite)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Config{ID: fmt.Sprintf("c%d", i)})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 40; j++ {
				path := fmt.Sprintf("/f%d", j%4)
				if j%7 == 0 {
					if err := c.Write(path, []byte(fmt.Sprintf("%d-%d", i, j))); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				} else {
					if _, err := c.Read(path); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestExtendAllRevalidatesStaleData(t *testing.T) {
	clk := clock.NewSim()
	srv, addr := startServer(t, server.Config{Term: 400 * time.Millisecond, Clock: clk})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)
	srv.Store().WriteFile(2, []byte("v1"))

	c := dial(t, addr, "c1", client.Config{Clock: clk})
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Let the lease lapse, then change the file via a second client.
	clk.Advance(600 * time.Millisecond)
	w := dial(t, addr, "w", client.Config{Clock: clk})
	if err := w.Write("/f", []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// ExtendAll renews the lapsed lease; the version moved, so the
	// cached copy must be dropped, and the next read refetches v2.
	if err := c.ExtendAll(); err != nil {
		t.Fatalf("ExtendAll: %v", err)
	}
	data, err := c.Read("/f")
	if err != nil {
		t.Fatalf("re-Read: %v", err)
	}
	if string(data) != "v2" {
		t.Fatalf("stale read after extension: %q", data)
	}
}

func TestServerMetricsAndLeaseCount(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Minute})
	srv.Store().Create("/f", "root", vfs.DefaultPerm|vfs.WorldWrite)
	reader := dial(t, addr, "reader", client.Config{})
	writer := dial(t, addr, "writer", client.Config{})
	if _, err := reader.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if srv.LeaseCount() == 0 {
		t.Fatal("LeaseCount zero after a leased read")
	}
	if err := writer.Write("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.Grants == 0 {
		t.Fatalf("metrics = %+v, want grants recorded", m)
	}
	if m.WritesDeferred == 0 || m.ApprovalsApplied == 0 {
		t.Fatalf("metrics = %+v, want the deferred write and its approval recorded", m)
	}
}

func TestMaxTermGrantedTracked(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 42 * time.Second})
	srv.Store().Create("/f", "root", vfs.DefaultPerm)
	c := dial(t, addr, "c1", client.Config{})
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := srv.MaxTermGranted(); got != 42*time.Second {
		t.Fatalf("MaxTermGranted = %v", got)
	}
}

func TestListenAndServeAndAddr(t *testing.T) {
	s := server.New(server.Config{Term: time.Second})
	s.Store().Create("/f", "root", vfs.DefaultPerm)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 100; i++ {
		if a := s.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("Addr never became available")
	}
	c := dial(t, addr, "c1", client.Config{})
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	s.Stop()
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe returned %v after Stop", err)
	}
	// A bad address errors immediately.
	if err := server.New(server.Config{}).ListenAndServe("256.0.0.1:bogus"); err == nil {
		t.Fatal("bogus address accepted")
	}
}

// TStat is the attribute-only wire operation (the client library
// prefers Lookup, which also grants a binding lease): exercise it raw.
func TestStatWireOperation(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Second})
	a, _ := srv.Store().Create("/f", "alice", vfs.DefaultPerm)
	srv.Store().WriteFile(a.ID, []byte("xyz"))

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var e proto.Enc
	e.Str("rawstat")
	proto.WriteFrame(raw, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()})
	proto.ReadFrame(raw)

	var e2 proto.Enc
	e2.U64(uint64(a.ID))
	proto.WriteFrame(raw, proto.Frame{Type: proto.TStat, ReqID: 2, Payload: e2.Bytes()})
	f, err := proto.ReadFrame(raw)
	if err != nil || f.Type != proto.TStatRep {
		t.Fatalf("TStat reply: %v type=%d", err, f.Type)
	}
	attr := proto.NewDec(f.Payload).Attr()
	if attr.Owner != "alice" || attr.Size != 3 || attr.Version != 1 {
		t.Fatalf("attr = %+v", attr)
	}
	// Unknown node errors.
	var e3 proto.Enc
	e3.U64(9999)
	proto.WriteFrame(raw, proto.Frame{Type: proto.TStat, ReqID: 3, Payload: e3.Bytes()})
	f, _ = proto.ReadFrame(raw)
	if f.Type != proto.TError {
		t.Fatalf("missing node reply type = %d, want TError", f.Type)
	}
	// Unknown message types error rather than hang. (The type byte's
	// high bit is the trace-header flag, so stay below proto.TraceFlag —
	// a flagged-but-truncated frame is a framing error, not a dispatch
	// error, and kills the connection instead.)
	proto.WriteFrame(raw, proto.Frame{Type: 120, ReqID: 4})
	f, _ = proto.ReadFrame(raw)
	if f.Type != proto.TError {
		t.Fatalf("unknown type reply = %d, want TError", f.Type)
	}
}

// TestMutationRepliesNameTouchedBindings pins the tail of the create,
// remove and rename replies: each directory whose binding changed, by
// node, with the binding's version after the change.
func TestMutationRepliesNameTouchedBindings(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Second})
	world := vfs.DefaultPerm | vfs.WorldWrite
	d1, _ := srv.Store().Mkdir("/d1", "root", world)
	d2, _ := srv.Store().Mkdir("/d2", "root", world)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var e proto.Enc
	e.Str("rawmut")
	proto.WriteFrame(raw, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()})
	proto.ReadFrame(raw)

	version := func(id vfs.NodeID) uint64 {
		v, err := srv.Store().Version(vfs.Datum{Kind: vfs.DirBinding, Node: id})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// call sends one request and checks that the reply, after skip has
	// consumed what precedes them, ends with exactly the pairs for dirs.
	call := func(t0, rep proto.MsgType, fill func(*proto.Enc), skip func(*proto.Dec), dirs ...vfs.NodeID) {
		t.Helper()
		var e proto.Enc
		fill(&e)
		proto.WriteFrame(raw, proto.Frame{Type: t0, ReqID: 2, Payload: e.Bytes()})
		f, err := proto.ReadFrame(raw)
		if err != nil || f.Type != rep {
			t.Fatalf("%v reply: %v type=%v", t0, err, f.Type)
		}
		dec := proto.NewDec(f.Payload)
		skip(dec)
		for _, want := range dirs {
			id, v := vfs.NodeID(dec.U64()), dec.U64()
			if id != want || v != version(want) {
				t.Errorf("%v reply names binding %d at version %d, want %d at %d", t0, id, v, want, version(want))
			}
		}
		if dec.Err != nil || dec.Remaining() != 0 {
			t.Errorf("%v reply: err %v, %d bytes left over", t0, dec.Err, dec.Remaining())
		}
	}
	none := func(*proto.Dec) {}
	before := version(d1.ID)
	call(proto.TCreate, proto.TCreateRep, func(e *proto.Enc) { e.Str("/d1/f").U8(uint8(world)) },
		func(d *proto.Dec) { d.Attr() }, d1.ID)
	if got := version(d1.ID); got != before+1 {
		t.Fatalf("create moved the binding version %d → %d, want one step", before, got)
	}
	call(proto.TRename, proto.TOK, func(e *proto.Enc) { e.Str("/d1/f").Str("/d1/g") }, none, d1.ID, d1.ID)
	call(proto.TRename, proto.TOK, func(e *proto.Enc) { e.Str("/d1/g").Str("/d2/g") }, none, d1.ID, d2.ID)
	call(proto.TRemove, proto.TOK, func(e *proto.Enc) { e.Str("/d2/g") }, none, d2.ID)
}

func TestAutoExtendKeepsLeaseAlive(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 500 * time.Millisecond})
	srv.Store().Create("/f", "root", vfs.DefaultPerm)
	srv.Store().WriteFile(2, []byte("data"))
	c := dial(t, addr, "c1", client.Config{AutoExtend: 150 * time.Millisecond})
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	before := c.Metrics().ReadHits
	time.Sleep(time.Second) // well past the original term
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read after term: %v", err)
	}
	if c.Metrics().ReadHits != before+1 {
		t.Fatal("auto-extend did not keep the lease alive across the term")
	}
}
