package client_test

import (
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/proto"
	"leases/internal/server"
)

// TestInstalledBroadcastKeepsCacheHot is the §4.3 economy end to end:
// with every path statically installed, the periodic broadcast keeps
// the client's whole portfolio covered, so the cache stays hot far past
// the per-file term without the client sending a single extension
// request.
func TestInstalledBroadcastKeepsCacheHot(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term: time.Second,
		Class: server.ClassConfig{
			InstalledDirs:  []string{"/"},
			InstalledTerm:  3 * time.Second,
			BroadcastEvery: 50 * time.Millisecond,
		},
	})
	seedFile(t, srv, "/f", "v1")
	c, err := client.Dial(addr, client.Config{ID: "c1", AutoExtend: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}

	// The read promoted /f (and the bindings walked to reach it); the
	// renewal loop hears about the membership change from the next
	// broadcast's generation stamp and refetches the snapshot.
	waitFor(t, func() bool {
		gen, members, stale := c.InstalledClass()
		return gen > 0 && members > 0 && !stale
	})
	if info, ok := srv.ClassSnapshot(); !ok || len(info.Members) == 0 {
		t.Fatalf("server class snapshot = %+v, %v", info, ok)
	}

	// Sit out more than the per-file term. Broadcast extensions are the
	// only thing keeping the leases alive.
	time.Sleep(1300 * time.Millisecond)
	before := c.Metrics()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if hits := c.Metrics().ReadHits - before.ReadHits; hits != 1 {
		t.Fatalf("read after term was not a cache hit (hits delta %d)", hits)
	}
	ws := c.WireStats()
	if n := ws.Frames(proto.TExtend, "out"); n != 0 {
		t.Fatalf("client sent %d extend frames; installed coverage should need none", n)
	}
	if n := ws.Frames(proto.TBroadcastExt, "in"); n == 0 {
		t.Fatal("client never received a broadcast extension")
	}
}

// TestDropOnWriteDemotion is §4.3's write path: the first write to an
// installed file drops it from the class, waits out the broadcast
// coverage horizon, and then applies under the normal per-file
// protocol — so a reader holding the class snapshot can never read
// stale bytes.
func TestDropOnWriteDemotion(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term:         200 * time.Millisecond,
		WriteTimeout: 5 * time.Second,
		Class: server.ClassConfig{
			InstalledDirs:  []string{"/lib"},
			InstalledTerm:  400 * time.Millisecond,
			BroadcastEvery: 50 * time.Millisecond,
		},
	})
	if _, err := srv.Store().Mkdir("/lib", "root", 0o7); err != nil {
		t.Fatal(err)
	}
	seedFile(t, srv, "/lib/f", "v1")

	r, err := client.Dial(addr, client.Config{ID: "reader", AutoExtend: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read("/lib/f"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, members, stale := r.InstalledClass()
		return members > 0 && !stale
	})
	genBefore, _, _ := r.InstalledClass()

	w, err := client.Dial(addr, client.Config{ID: "writer"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write("/lib/f", []byte("v2")); err != nil {
		t.Fatalf("write to installed file: %v", err)
	}

	// The file left the class at the server...
	info, ok := srv.ClassSnapshot()
	if !ok {
		t.Fatal("class disabled")
	}
	for _, m := range info.Members {
		if m.Path == "/lib/f" {
			t.Fatal("written file still in the installed class")
		}
	}
	// ...and the reader sees the new contents, never the old.
	data, err := r.Read("/lib/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("read after demotion = %q, want v2", data)
	}
	// The generation bump reaches the reader, whose refetched snapshot no
	// longer claims the file.
	waitFor(t, func() bool {
		gen, _, stale := r.InstalledClass()
		return gen > genBefore && !stale
	})
}

// TestRenewalsRideRequests is §4's anticipatory extension riding the
// requests a client sends anyway: a file read now and then, beside
// unrelated writes, stays cached past its term with no extension
// request — each write carries the renewal of the lease the reads used.
func TestRenewalsRideRequests(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 400 * time.Millisecond, WriteTimeout: 5 * time.Second})
	seedFile(t, srv, "/f", "v1")
	seedFile(t, srv, "/g", "x")
	c, err := client.Dial(addr, client.Config{ID: "c1"}) // no renewal loop
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}

	// 2× the term of hits on /f and writes to /g.
	for i := 0; i < 8; i++ {
		time.Sleep(100 * time.Millisecond)
		if _, err := c.Read("/f"); err != nil {
			t.Fatal(err)
		}
		if err := c.Write("/g", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	m := c.Metrics()
	if m.ReadHits != m.Reads-1 {
		t.Fatalf("%d of %d reads were hits; only the first should have gone to the server", m.ReadHits, m.Reads)
	}
	ws := c.WireStats()
	if n := ws.Frames(proto.TRead, "out"); n != 1 {
		t.Fatalf("client sent %d read frames, want 1", n)
	}
	if n := ws.Frames(proto.TExtend, "out"); n != 0 {
		t.Fatalf("client sent %d extend frames; renewals riding writes should need none", n)
	}
}

// TestClassFetchedAfterFirstBroadcast: a client learns that the server
// runs the installed class from its first TBroadcastExt, whose
// generation it does not hold, and fetches the snapshot after it — not
// at dial, and not while the class is empty and nothing is broadcast.
func TestClassFetchedAfterFirstBroadcast(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term: time.Second,
		Class: server.ClassConfig{
			InstalledDirs:  []string{"/"},
			InstalledTerm:  time.Second,
			BroadcastEvery: 25 * time.Millisecond,
		},
	})
	seedFile(t, srv, "/f", "v1")
	c, err := client.Dial(addr, client.Config{ID: "c1", AutoExtend: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Renewal rounds run; the class is empty, so no broadcast, so no fetch.
	time.Sleep(150 * time.Millisecond)
	ws := c.WireStats()
	if n := ws.Frames(proto.TInstalled, "out"); n != 0 {
		t.Fatalf("client fetched the class %d times before any broadcast", n)
	}
	if _, err := c.Read("/f"); err != nil { // promotes /f: broadcasts begin
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		// A broadcast is counted as it is read, before the fetch it causes
		// is sent: a fetch seen here with no broadcast after it came first.
		fetched := ws.Frames(proto.TInstalled, "out") > 0
		if fetched && ws.Frames(proto.TBroadcastExt, "in") == 0 {
			t.Fatal("client fetched the class before its first broadcast")
		}
		return fetched
	})
	waitFor(t, func() bool {
		gen, members, stale := c.InstalledClass()
		return gen > 0 && members > 0 && !stale
	})
}

// TestPlainServerNoClassTraffic: a server with no class configured
// broadcasts nothing, so the client never sends a class frame at it and
// renews with plain batched extensions.
func TestPlainServerNoClassTraffic(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 300 * time.Millisecond})
	seedFile(t, srv, "/f", "v1")

	c, err := client.Dial(addr, client.Config{ID: "c1", AutoExtend: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	// Let the renewal loop run several rounds; it must fall back to plain
	// batched extension and never emit a class frame.
	waitFor(t, func() bool { return c.WireStats().Frames(proto.TExtend, "out") >= 2 })
	ws := c.WireStats()
	if n := ws.Frames(proto.TInstalled, "out"); n != 0 {
		t.Fatalf("client sent %d TInstalled frames to a class-less server", n)
	}
	if n := ws.Frames(proto.TBroadcastExt, "in"); n != 0 {
		t.Fatalf("class-less server pushed %d class frames", n)
	}
	// Leases still renew the old way: the cache stays hot past the term.
	time.Sleep(500 * time.Millisecond)
	before := c.Metrics()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if hits := c.Metrics().ReadHits - before.ReadHits; hits != 1 {
		t.Fatalf("renewal loop failed against plain server (hits delta %d)", hits)
	}
}
