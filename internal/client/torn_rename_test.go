package client_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// refusingDestination is group 1 of a two-group ring as a scripted
// listener: it accepts a transfer's prepare and refuses its commit, the
// one point at which a cross-shard rename fails after the source group
// has removed the file.
func refusingDestination(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			nc, err := ln.Accept()
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
					rep := proto.Frame{Type: proto.TError, ReqID: f.ReqID}
					var e proto.Enc
					switch f.Type {
					case proto.THello:
						rep.Type, rep.Payload = proto.THelloAck, e.U64(1).U64(proto.FeatShard).Bytes()
					case proto.TShardPrepare:
						rep.Type, rep.Payload = proto.TShardPrepareRep, e.U64(1).Bytes()
					default:
						rep.Payload = e.Str("refused").Bytes()
					}
					f.Recycle()
					if proto.WriteFrame(nc, rep) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
}

// TestTornRenameDropsCachedEdges: a cross-shard rename whose destination
// commit is refused has already removed the source, and its error reply
// names no directory to patch. The renamer gets no callback for its own
// change and keeps its leases, so unless it drops its cached edges the
// old name keeps resolving — and its contents keep being served — from
// its own cache.
func TestTornRenameDropsCachedEdges(t *testing.T) {
	lns, addrs := listeners(t, 2)
	ring, err := shard.New(1, []shard.Group{{ID: 0, Replicas: addrs[:1]}, {ID: 1, Replicas: addrs[1:]}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServerOn(t, server.Config{Term: time.Minute, Shard: server.ShardConfig{GroupID: 0, Ring: ring}}, lns[0])
	refusingDestination(t, lns[1])
	src := pathOwnedBy(t, ring, 0, "/d/src%d")
	dst := pathOwnedBy(t, ring, 1, "/d/dst%d")
	if _, err := srv.Store().Mkdir("/d", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	seedFile(t, srv, src, "v1")

	r, err := client.NewRouter(ring, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ { // fetch, then from the cache
		if data, err := r.Read(src); err != nil || string(data) != "v1" {
			t.Fatalf("Read(%s) = %q, %v", src, data, err)
		}
	}
	if err := r.Rename(src, dst); !errors.Is(err, client.ErrRemote) {
		t.Fatalf("rename with a refused destination commit = %v, want a remote error", err)
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
