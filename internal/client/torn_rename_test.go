package client_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// scriptedRename serves group 0 of a two-group ring and scripts group 1:
// it answers the source master's hello and hands the move that follows
// to move, which answers it or not; the connection closes after it. It
// seeds src with "v1" on group 0 and returns a router that has read it
// twice, so its cache holds the file and every directory edge to it.
func scriptedRename(t *testing.T, move func(nc net.Conn, f proto.Frame)) (srv *server.Server, r *client.Router, src, dst string) {
	t.Helper()
	lns, addrs := listeners(t, 2)
	ring, err := shard.New(1, []shard.Group{{ID: 0, Replicas: addrs[:1]}, {ID: 1, Replicas: addrs[1:]}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv = startServerOn(t, server.Config{Term: time.Minute, Shard: server.ShardConfig{GroupID: 0, Ring: ring}}, lns[0])
	go func() {
		for {
			nc, err := lns[1].Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				for {
					f, err := proto.ReadFrame(nc)
					if err != nil {
						return
					}
					if f.Type != proto.THello {
						move(nc, f)
						return
					}
					var e proto.Enc
					if proto.WriteFrame(nc, proto.Frame{Type: proto.THelloAck, ReqID: f.ReqID, Payload: e.U64(1).Bytes()}) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { lns[1].Close() })
	src = pathOwnedBy(t, ring, 0, "/d/src%d")
	dst = pathOwnedBy(t, ring, 1, "/d/dst%d")
	if _, err := srv.Store().Mkdir("/d", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	seedFile(t, srv, src, "v1")

	r, err = client.NewRouter(ring, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for i := 0; i < 2; i++ { // fetch, then from the cache
		if data, err := r.Read(src); err != nil || string(data) != "v1" {
			t.Fatalf("Read(%s) = %q, %v", src, data, err)
		}
	}
	return srv, r, src, dst
}

// TestRefusedRenameKeepsSource: a move the destination refuses is undone
// by the source, which removed the file at its commit point and now
// creates it again with its bytes. The renamer's error reply names no
// directory to patch, so it drops its cached edges and finds the file
// anew.
func TestRefusedRenameKeepsSource(t *testing.T) {
	srv, r, src, dst := scriptedRename(t, func(nc net.Conn, f proto.Frame) {
		var e proto.Enc
		proto.WriteFrame(nc, proto.Frame{Type: proto.TError, ReqID: f.ReqID, Payload: e.Str("refused").Bytes()})
	})
	if err := r.Rename(src, dst); !errors.Is(err, client.ErrRemote) {
		t.Fatalf("rename with a refused move = %v, want a remote error", err)
	}
	if _, err := srv.Store().Lookup(src); err != nil {
		t.Fatalf("%s not restored on the source group: %v", src, err)
	}
	if data, err := r.Read(src); err != nil || string(data) != "v1" {
		t.Fatalf("Read(%s) after the refused move = %q, %v; want v1", src, data, err)
	}
}

// TestUnrestorableRenameIsReported: when the undo of a refused move fails
// too — here a new file took the old name meanwhile — the moved file is
// in neither group, and the renamer is told so rather than handed what
// reads like an ordinary failed rename.
func TestUnrestorableRenameIsReported(t *testing.T) {
	var srv *server.Server
	var src string
	srv, r, src, dst := scriptedRename(t, func(nc net.Conn, f proto.Frame) {
		srv.Store().Create(src, "root", vfs.DefaultPerm)
		var e proto.Enc
		proto.WriteFrame(nc, proto.Frame{Type: proto.TError, ReqID: f.ReqID, Payload: e.Str("refused").Bytes()})
	})
	if err := r.Rename(src, dst); err == nil || !strings.Contains(err.Error(), "restoring it failed") {
		t.Fatalf("rename whose undo failed = %v, want it reported", err)
	}
}

// TestTornRenameDropsCachedEdges: a destination that reads the move and
// closes the connection leaves its outcome unknown, so the source,
// having removed the file, reports the rename failed without undoing
// it. The renamer gets no callback for its own change and keeps its
// leases, so unless it drops its cached edges the old name keeps
// resolving — and its contents keep being served — from its own cache.
func TestTornRenameDropsCachedEdges(t *testing.T) {
	srv, r, src, dst := scriptedRename(t, func(net.Conn, proto.Frame) {})
	if err := r.Rename(src, dst); !errors.Is(err, client.ErrRemote) {
		t.Fatalf("rename with a lost move = %v, want a remote error", err)
	}
	if _, err := srv.Store().Lookup(src); err == nil {
		t.Fatalf("%s still on the source group: the rename did not reach its commit point", src)
	}
	g0, err := r.GroupCache(0)
	if err != nil {
		t.Fatal(err)
	}
	before := sentBy(g0)
	if data, err := r.Read(src); !errors.Is(err, client.ErrRemote) {
		t.Fatalf("Read(%s) after its removal = %q, %v; want a remote not-exist", src, data, err)
	}
	if got := sentBy(g0).minus(before); got.reads != 1 {
		t.Fatalf("Read(%s) sent %+v, want one TRead", src, got)
	}
}
