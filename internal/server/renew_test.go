package server_test

import (
	"net"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// Renewals riding requests, driven end to end over in-memory pipes on a
// simulated clock: a lease that served a hit is extended on the next
// read or write the client sends once it is past half its term, and a
// lease nobody used lapses.

const renewTerm = 10 * time.Second

// renewFixture serves /f and /w on a simulated clock; dial connects a
// client on the same clock.
func renewFixture(t *testing.T) (srv *server.Server, clk *clock.Sim, dial func(id string) *client.Cache, connect func() (net.Conn, *gidConn)) {
	t.Helper()
	clk = clock.NewSim()
	srv, connect = startPipeServer(t, server.Config{Term: renewTerm, Clock: clk})
	seedWritable(t, srv, "/f", "v1")
	seedWritable(t, srv, "/w", "")
	return srv, clk, func(id string) *client.Cache {
		nc, _ := connect()
		c, err := client.NewFromConn(nc, client.Config{ID: id, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}, connect
}

func mustReadAs(t *testing.T, c *client.Cache, path, want string) {
	t.Helper()
	if data, err := c.Read(path); err != nil || string(data) != want {
		t.Fatalf("Read(%s) = %q, %v; want %q", path, data, err, want)
	}
}

func mustWrite(t *testing.T, c *client.Cache, path, data string) {
	t.Helper()
	if err := c.Write(path, []byte(data)); err != nil {
		t.Fatalf("Write(%s): %v", path, err)
	}
}

func sentFrames(c *client.Cache, typ proto.MsgType) uint64 { return c.WireStats().Frames(typ, "out") }

// TestReadFileStaysCached: a file read every tenth of a term for five
// terms, beside unrelated writes, costs one TRead in all and no TExtend.
func TestReadFileStaysCached(t *testing.T) {
	_, clk, dial, _ := renewFixture(t)
	c := dial("reader")
	if _, err := c.Lookup("/w"); err != nil { // the one lookup: the writes' name
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		mustReadAs(t, c, "/f", "v1")
		mustWrite(t, c, "/w", "x")
		clk.Advance(renewTerm / 10)
	}
	if n := sentFrames(c, proto.TRead); n != 1 {
		t.Errorf("%d TRead frames over five terms of reads, want 1", n)
	}
	if n := sentFrames(c, proto.TExtend); n != 0 {
		t.Errorf("%d TExtend frames, want none", n)
	}
	if n := sentFrames(c, proto.TLookup); n != 1 {
		t.Errorf("%d TLookup frames, want 1", n)
	}
	if m := c.Metrics(); m.ReadHits != 50 {
		t.Errorf("%d hits of 51 reads, want 50", m.ReadHits)
	}
}

// TestUnreadFileLapses: a cached file nobody reads is not renewed by the
// requests that go by; it lapses at the server too, so another client's
// write asks its holder nothing, and the next read fetches.
func TestUnreadFileLapses(t *testing.T) {
	_, clk, dial, _ := renewFixture(t)
	c, w := dial("reader"), dial("writer")
	mustReadAs(t, c, "/f", "v1")
	for i := 0; i < 20; i++ {
		clk.Advance(renewTerm / 10)
		mustWrite(t, c, "/w", "x")
	}
	mustWrite(t, w, "/f", "v2")
	if n := c.WireStats().Frames(proto.TApprovalReq, "in"); n != 0 {
		t.Errorf("the writer's write asked the reader %d times: its unread lease was renewed", n)
	}
	mustReadAs(t, c, "/f", "v2")
	if n := sentFrames(c, proto.TRead); n != 2 {
		t.Errorf("%d TRead frames, want 2", n)
	}
}

// TestRefusedRenewalDropsCopy: a renewal that reaches the server while
// another client's write waits on the datum is refused; the copy goes,
// and the next read fetches — the old contents, once and uncached, while
// the write still waits, then the new.
func TestRefusedRenewalDropsCopy(t *testing.T) {
	srv, clk, dial, connect := renewFixture(t)
	r, w := dial("reader"), dial("writer")
	mustReadAs(t, r, "/f", "v1")
	clk.Advance(renewTerm * 6 / 10)
	mustReadAs(t, r, "/f", "v1") // a hit: /f is renewed on r's next request
	clk.Advance(renewTerm / 2)   // but none goes out before the lease runs out

	// A holder that never approves keeps w's write waiting; r, whose lease
	// lapsed, is asked nothing.
	f, err := srv.Store().Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	muteHolder(t, connect, vfs.Datum{Kind: vfs.FileData, Node: f.ID})
	wc := w.StartWrite("/f", []byte("v2"))
	waitFor(t, "the write to wait on the mute holder", func() bool { return srv.Metrics().WritesDeferred >= 1 })

	mustWrite(t, r, "/w", "x") // carries /f's renewal, which is refused
	if m := r.Metrics(); m.Invalidations != 1 {
		t.Fatalf("%d invalidations after a refused renewal, want 1", m.Invalidations)
	}
	reads := sentFrames(r, proto.TRead)
	mustReadAs(t, r, "/f", "v1")
	mustReadAs(t, r, "/f", "v1")
	if n := sentFrames(r, proto.TRead) - reads; n != 2 {
		t.Fatalf("%d TRead frames for two reads while the write waits, want 2", n)
	}
	clk.Advance(renewTerm + time.Second)
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
	mustReadAs(t, r, "/f", "v2")
}

// TestResolvedPathStaysLeased: a path resolved under leased directories
// for five terms, by writes every tenth of a term, sends no TLookup: the
// writes renew the directories they resolve through.
func TestResolvedPathStaysLeased(t *testing.T) {
	srv, clk, dial, _ := renewFixture(t)
	if _, err := srv.Store().Mkdir("/a", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Store().Mkdir("/a/b", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	seedWritable(t, srv, "/a/b/f", "v1")
	c := dial("writer")
	mustReadAs(t, c, "/a/b/f", "v1")
	for i := 0; i < 50; i++ {
		clk.Advance(renewTerm / 10)
		mustWrite(t, c, "/a/b/f", "v2")
	}
	if n := sentFrames(c, proto.TLookup); n != 0 {
		t.Errorf("%d TLookup frames over five terms of writes, want none", n)
	}
	if m := c.Metrics(); m.LookupHits != 50 {
		t.Errorf("%d of the 50 writes resolved locally, want all", m.LookupHits)
	}
}
