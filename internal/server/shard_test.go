package server_test

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// Cross-shard renames between two single-server groups on loopback, the
// servers and the clients on one simulated clock: the source clears and
// removes the file, and one move carries its bytes to the destination.

// shardPair serves a two-group ring, one server per group, both on clk,
// each with the directory /d. A non-nil dstReplica makes group 1's
// server a promoted master replicating through it.
func shardPair(t *testing.T, clk *clock.Sim, dstReplica server.Replica) (srvs [2]*server.Server, ring *shard.Ring) {
	srvs, ring, _ = shardGroups(t, clk, dstReplica, nil)
	return srvs, ring
}

// shardGroups is shardPair counting the connections each server accepts,
// lns[i] srvs[i]'s. A non-nil standby lists a replica of group 1 ahead of
// its server: one never promoted, which refuses every hello with
// standby's MasterIndex as the hint, its connections counted by lns[2].
func shardGroups(t *testing.T, clk *clock.Sim, dstReplica, standby server.Replica) (srvs [2]*server.Server, ring *shard.Ring, lns []*countingListener) {
	t.Helper()
	n := 2
	if standby != nil {
		n = 3
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns, addrs[i] = append(lns, &countingListener{Listener: ln}), ln.Addr().String()
	}
	groups := []shard.Group{{ID: 0, Replicas: addrs[:1]}, {ID: 1, Replicas: addrs[1:2]}}
	if standby != nil {
		groups[1].Replicas = []string{addrs[2], addrs[1]}
	}
	ring, err := shard.New(1, groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cfg := server.Config{Term: renewTerm, Clock: clk, Shard: server.ShardConfig{GroupID: min(i, 1), Ring: ring}}
		switch i {
		case 1:
			cfg.Replica = dstReplica
		case 2:
			cfg.Replica = standby
		}
		srv := server.New(cfg)
		if cfg.Replica != nil && i < 2 {
			srv.Promote(tracing.Context{}, nil, 0)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(lns[i])
		}()
		t.Cleanup(func() {
			srv.Stop()
			<-done
		})
		if i < 2 {
			if _, err := srv.Store().Mkdir("/d", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
				t.Fatal(err)
			}
			srvs[i] = srv
		}
	}
	return srvs, ring, lns
}

// countingListener counts the connections a server accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return nc, err
}

// standbyReplica is a replica that points hellos at replica 1.
type standbyReplica struct{ gateReplica }

func (standbyReplica) MasterIndex() int { return 1 }

// ownedBy returns the first path of the family pattern the ring gives
// to group that is not in taken.
func ownedBy(t *testing.T, ring *shard.Ring, group int, pattern string, taken ...string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		p := fmt.Sprintf(pattern, i)
		if ring.Lookup(p) == group && !slices.Contains(taken, p) {
			return p
		}
	}
	t.Fatalf("no path of form %q owned by group %d", pattern, group)
	return ""
}

func router(t *testing.T, ring *shard.Ring, clk *clock.Sim, id string) *client.Router {
	t.Helper()
	r, err := client.NewRouter(ring, client.Config{ID: id, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// stored returns what srv's store holds at path.
func stored(t *testing.T, srv *server.Server, path string) string {
	t.Helper()
	a, err := srv.Store().Lookup(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	data, _, err := srv.Store().ReadFile(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCrossShardRenameOnSimulatedClock: the move between the masters is
// timed on the wall clock, not on the server's, which a simulated clock
// keeps years in the past.
func TestCrossShardRenameOnSimulatedClock(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring := shardPair(t, clk, nil)
	src, dst := ownedBy(t, ring, 0, "/d/src%d"), ownedBy(t, ring, 1, "/d/dst%d")
	seedWritable(t, srvs[0], src, "v1")
	r := router(t, ring, clk, "c1")
	if err := r.Rename(src, dst); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if _, err := srvs[0].Store().Lookup(src); err == nil {
		t.Fatalf("%s still on the source group", src)
	}
	if data, err := r.Read(dst); err != nil || string(data) != "v1" {
		t.Fatalf("Read(%s) = %q, %v; want v1", dst, data, err)
	}
}

// TestCrossShardRenameMovesRacingWrite: a mutation cleared ahead of the
// rename moves with the file — a write to it, or a chown on its
// directory's binding. A holder that never approves parks the mutation
// until its lease runs out, and the rename queues behind it; both then
// go through, and the destination's file shows the mutation.
func TestCrossShardRenameMovesRacingWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		// race parks the mutation behind hold and returns its wait.
		race func(src string, file, dir vfs.NodeID, hold func(vfs.Datum), dialAs func(string) *client.Cache) func() error
		// moved reports whether the destination's file shows it.
		moved func(a vfs.Attr, data string) bool
	}{
		{"write", func(src string, file, _ vfs.NodeID, hold func(vfs.Datum), dialAs func(string) *client.Cache) func() error {
			hold(vfs.Datum{Kind: vfs.FileData, Node: file})
			return dialAs("writer").StartWrite(src, []byte("v2")).Wait
		}, func(_ vfs.Attr, data string) bool { return data == "v2" }},
		{"setperm", func(src string, _, dir vfs.NodeID, hold func(vfs.Datum), dialAs func(string) *client.Cache) func() error {
			hold(vfs.Datum{Kind: vfs.DirBinding, Node: dir})
			owner, done := dialAs("root"), make(chan error, 1)
			go func() { done <- owner.SetPerm(src, "alice", vfs.DefaultPerm|vfs.WorldWrite) }()
			return func() error { return <-done }
		}, func(a vfs.Attr, _ string) bool { return a.Owner == "alice" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewSim()
			srvs, ring := shardPair(t, clk, nil)
			src, dst := ownedBy(t, ring, 0, "/d/src%d"), ownedBy(t, ring, 1, "/d/dst%d")
			file := seedWritable(t, srvs[0], src, "v1")
			dir, err := srvs[0].Store().Lookup("/d")
			if err != nil {
				t.Fatal(err)
			}
			addr := ring.Groups[0].Replicas[0]
			hold := func(d vfs.Datum) {
				muteHolder(t, func() (net.Conn, *gidConn) {
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { nc.Close() })
					return nc, nil
				}, d)
			}
			dialAs := func(id string) *client.Cache { return dial(t, addr, id, client.Config{Clock: clk}) }
			wait := tc.race(src, file, dir.ID, hold, dialAs)
			waitFor(t, "the mutation to wait on the mute holder", func() bool { return srvs[0].Metrics().WritesDeferred >= 1 })
			a := router(t, ring, clk, "renamer")
			renamed := make(chan error, 1)
			go func() { renamed <- a.Rename(src, dst) }()
			waitFor(t, "the rename to queue behind it", func() bool { return srvs[0].Metrics().WritesDeferred >= 2 })

			clk.Advance(renewTerm + time.Second)
			if err := wait(); err != nil {
				t.Fatalf("the %s: %v", tc.name, err)
			}
			if err := <-renamed; err != nil {
				t.Fatalf("the rename: %v", err)
			}
			attr, err := srvs[1].Store().Lookup(dst)
			if err != nil {
				t.Fatal(err)
			}
			if data := stored(t, srvs[1], dst); !tc.moved(attr, data) {
				t.Fatalf("the destination holds %q owned by %s, without the %s", data, attr.Owner, tc.name)
			}
		})
	}
}

// TestCrossShardRenameOntoExistingName: the destination refuses a move
// onto a name it already has, and the source puts the file back: it
// reads with its bytes at its old name, and the destination's file is
// untouched.
func TestCrossShardRenameOntoExistingName(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring := shardPair(t, clk, nil)
	src, dst := ownedBy(t, ring, 0, "/d/src%d"), ownedBy(t, ring, 1, "/d/dst%d")
	seedWritable(t, srvs[0], src, "v1")
	seedWritable(t, srvs[1], dst, "theirs")
	r := router(t, ring, clk, "c1")
	if _, err := r.Read(src); err != nil {
		t.Fatal(err)
	}
	if err := r.Rename(src, dst); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("rename onto an existing name = %v, want a refusal naming it", err)
	}
	if data, err := r.Read(src); err != nil || string(data) != "v1" {
		t.Fatalf("Read(%s) after the refused move = %q, %v; want v1", src, data, err)
	}
	if got := stored(t, srvs[1], dst); got != "theirs" {
		t.Fatalf("the destination's %s holds %q", dst, got)
	}
}

// TestShardMoveCarriesOnlyAMoveIn: a TShardMove whose op is of an unknown
// kind does not decode, and one carrying any op but a move-in is refused:
// each is answered TError, and the destination's store is unchanged.
func TestShardMoveCarriesOnlyAMoveIn(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring := shardPair(t, clk, nil)
	dst, fresh := ownedBy(t, ring, 1, "/d/dst%d"), ownedBy(t, ring, 1, "/d/new%d")
	seedWritable(t, srvs[1], dst, "theirs")
	nc := rawHello(t, ring.Groups[1].Replicas[0], "shard-move:test")
	defer nc.Close()
	for i, op := range []vfs.Op{
		{Kind: vfs.OpSetPerm + 1, Path: fresh, Data: []byte("x")},
		{Kind: vfs.OpCreate, Path: fresh},
		{Kind: vfs.OpWrite, Path: dst, Data: []byte("mine")},
		{Kind: vfs.OpRemove, Path: dst},
	} {
		var e proto.Enc
		e.U64(ring.Epoch).EncodeOp(op)
		if err := proto.WriteFrame(nc, proto.Frame{Type: proto.TShardMove, ReqID: uint64(2 + i), Payload: e.Bytes()}); err != nil {
			t.Fatal(err)
		}
		if rep, err := proto.ReadFrame(nc); err != nil || rep.Type != proto.TError {
			t.Fatalf("a move carrying op kind %d answered %v, %v; want TError", op.Kind, rep.Type, err)
		}
	}
	if got := stored(t, srvs[1], dst); got != "theirs" {
		t.Fatalf("%s holds %q", dst, got)
	}
	if _, err := srvs[1].Store().Lookup(fresh); err == nil {
		t.Fatalf("%s was created", fresh)
	}
}

// shipDeposer is a replica deposed by the first write it replicates: the
// bytes reach its quorum, and its gate closes before the apply.
type shipDeposer struct{ flipReplica }

func (r *shipDeposer) ReplicateWrite(tracing.Context, string, uint64, []byte) error {
	r.deposed.Store(true)
	return nil
}

// TestCrossShardMoveFailedAfterShipIsNotUndone: a destination deposed
// between replicating the moved bytes and applying them fails the move,
// but its followers hold the file, and a later master serves it. It
// answers that the outcome is unknown rather than refuse, so the source
// reports it so and does not put a second copy back.
func TestCrossShardMoveFailedAfterShipIsNotUndone(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring := shardPair(t, clk, &shipDeposer{})
	src, dst := ownedBy(t, ring, 0, "/d/src%d"), ownedBy(t, ring, 1, "/d/dst%d")
	seedWritable(t, srvs[0], src, "v1")
	r := router(t, ring, clk, "c1")
	if err := r.Rename(src, dst); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("rename whose move failed after its ship = %v, want an unknown outcome", err)
	}
	if _, err := srvs[0].Store().Lookup(src); err == nil {
		t.Fatalf("%s restored on the source group while the destination's followers hold it", src)
	}
}

// TestConcurrentMovesAtDeposedDestination: two moves from one source
// share the mover's session to a replicated destination and park there,
// each behind a mute holder of its new parent's binding, the holds
// running out two seconds apart. The first move's ship deposes the
// destination: that move failed after its bytes reached the followers,
// so its outcome is unknown and the source does not restore the file.
// The second fails before its ship: it is refused, and the source
// restores its file. The first failure's answer must leave the shared
// connection up for the second's.
func TestConcurrentMovesAtDeposedDestination(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring := shardPair(t, clk, &shipDeposer{})
	for _, srv := range srvs {
		if _, err := srv.Store().Mkdir("/e", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
	}
	srcA, srcB := ownedBy(t, ring, 0, "/d/a%d"), ownedBy(t, ring, 0, "/d/b%d")
	dstA, dstB := ownedBy(t, ring, 1, "/d/a%d"), ownedBy(t, ring, 1, "/e/b%d")
	seedWritable(t, srvs[0], srcA, "a")
	seedWritable(t, srvs[0], srcB, "b")
	hold := func(dir string) {
		a, err := srvs[1].Store().Lookup(dir)
		if err != nil {
			t.Fatal(err)
		}
		muteHolder(t, func() (net.Conn, *gidConn) {
			nc, err := net.Dial("tcp", ring.Groups[1].Replicas[0])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nc.Close() })
			return nc, nil
		}, vfs.Datum{Kind: vfs.DirBinding, Node: a.ID})
	}
	hold("/d")
	clk.Advance(2 * time.Second)
	hold("/e")

	r := router(t, ring, clk, "renamer")
	var renamed [2]chan error
	for i, mv := range [][2]string{{srcA, dstA}, {srcB, dstB}} {
		renamed[i] = make(chan error, 1)
		go func() { renamed[i] <- r.Rename(mv[0], mv[1]) }()
	}
	waitFor(t, "both moves to park at the destination", func() bool {
		return srvs[1].Metrics().WritesDeferred == 2 && clk.PendingTimers() == 2
	})

	clk.Advance(renewTerm - time.Second) // past the hold on /d, not the one on /e
	if err := <-renamed[0]; err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("the move failed after its ship = %v, want an unknown outcome", err)
	}
	clk.Advance(2 * time.Second)
	if err := <-renamed[1]; err == nil || !strings.Contains(err.Error(), "restored") {
		t.Fatalf("the move refused before its ship = %v, want it restored", err)
	}
	if _, err := srvs[0].Store().Lookup(srcA); err == nil {
		t.Fatalf("%s restored on the source group while the destination's followers hold it", srcA)
	}
	if got := stored(t, srvs[0], srcB); got != "b" {
		t.Fatalf("the source's %s holds %q after the refused move, want b", srcB, got)
	}
}

// TestCrossShardMoveFollowsNotMaster: the mover finds a replicated
// destination group's master through its session's replica cursor. The
// replica listed first refuses the hello with a hint at the second, and
// the move lands there. The next move rides the same session: it opens
// no connection and sends no hello.
func TestCrossShardMoveFollowsNotMaster(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring, lns := shardGroups(t, clk, nil, standbyReplica{})
	r := router(t, ring, clk, "c1")
	if _, err := r.Lookup("/d"); err != nil { // the client's own session
		t.Fatal(err)
	}
	var srcs, dsts []string
	for i := 0; i < 2; i++ {
		srcs = append(srcs, ownedBy(t, ring, 0, "/d/src%d", srcs...))
		dsts = append(dsts, ownedBy(t, ring, 1, "/d/dst%d", dsts...))
		seedWritable(t, srvs[0], srcs[i], fmt.Sprint("v", i))
	}
	for i, want := range []struct{ standby, master, hellos int64 }{{1, 1, 2}, {0, 0, 0}} {
		var accepted [3]int64
		for j, ln := range lns {
			accepted[j] = ln.accepted.Load()
		}
		hellosBefore := hellos(srvs[0].WireStats()) + hellos(srvs[1].WireStats())
		if err := r.Rename(srcs[i], dsts[i]); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got := stored(t, srvs[1], dsts[i]); got != fmt.Sprint("v", i) {
			t.Fatalf("move %d: the master's %s holds %q", i, dsts[i], got)
		}
		got := [3]int64{lns[0].accepted.Load() - accepted[0], lns[1].accepted.Load() - accepted[1], lns[2].accepted.Load() - accepted[2]}
		if want := [3]int64{0, want.master, want.standby}; got != want {
			t.Errorf("move %d: connections accepted by the source, master and standby %v, want %v", i, got, want)
		}
		if got := int64(hellos(srvs[0].WireStats()) + hellos(srvs[1].WireStats()) - hellosBefore); got != want.hellos {
			t.Errorf("move %d: %d hello frames at the source and master, want %d", i, got, want.hellos)
		}
	}
}
