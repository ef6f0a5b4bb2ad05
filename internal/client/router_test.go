package client_test

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/faultnet"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// startServerOn serves an already-listening socket — sharded tests
// must know every address before any server.Config (and its ring) can
// be built.
func startServerOn(t *testing.T, cfg server.Config, ln net.Listener) *server.Server {
	t.Helper()
	s := server.New(cfg)
	done := make(chan struct{})
	go func() { defer close(done); s.Serve(ln) }()
	t.Cleanup(func() { s.Stop(); <-done })
	return s
}

func listeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// startShardedPair boots a 2-group deployment (one server per group)
// sharing one ring at the given epoch, and returns the servers and the
// ring the clients should route by.
func startShardedPair(t *testing.T, epoch uint64) ([2]*server.Server, *shard.Ring) {
	t.Helper()
	lns, addrs := listeners(t, 2)
	ring, err := shard.New(epoch, []shard.Group{
		{ID: 0, Replicas: addrs[:1]},
		{ID: 1, Replicas: addrs[1:]},
	}, 0)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	var srvs [2]*server.Server
	for i := range srvs {
		srvs[i] = startServerOn(t, server.Config{
			Term:  time.Minute,
			Shard: server.ShardConfig{GroupID: i, Ring: ring},
		}, lns[i])
	}
	return srvs, ring
}

// pathOwnedBy scans a path family for one the ring assigns to the
// wanted group.
func pathOwnedBy(t *testing.T, ring *shard.Ring, group int, pattern string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		p := fmt.Sprintf(pattern, i)
		if ring.Lookup(p) == group {
			return p
		}
	}
	t.Fatalf("no path of form %q owned by group %d", pattern, group)
	return ""
}

// TestRouterRoutesAcrossGroups is the sharded happy path: the skeleton
// directory lands on every group, each file lands on (exactly) its
// owning group's store, and routed reads come back with zero
// NOT_OWNER redirects because the table was right from the start.
func TestRouterRoutesAcrossGroups(t *testing.T) {
	srvs, ring := startShardedPair(t, 1)
	r, err := client.NewRouter(ring, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.Mkdir("/d", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	for i := range srvs {
		if _, err := srvs[i].Store().Lookup("/d"); err != nil {
			t.Fatalf("skeleton /d missing on group %d: %v", i, err)
		}
	}

	const nfiles = 16
	seen := [2]int{}
	for i := 0; i < nfiles; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if _, err := r.Create(p, vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		if err := r.Write(p, []byte(p)); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		owner := ring.Lookup(p)
		seen[owner]++
		if _, err := srvs[owner].Store().Lookup(p); err != nil {
			t.Fatalf("%s missing on its owner group %d: %v", p, owner, err)
		}
		if _, err := srvs[1-owner].Store().Lookup(p); err == nil {
			t.Fatalf("%s leaked onto non-owner group %d", p, 1-owner)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("16 files all hashed to one group (%v); ring not spreading", seen)
	}
	for i := 0; i < nfiles; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		data, err := r.Read(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if string(data) != p {
			t.Fatalf("read %s = %q", p, data)
		}
	}
	if n := r.Redirects(); n != 0 {
		t.Fatalf("correct table followed %d redirects", n)
	}
}

// TestRouterCrossShardRename drives the cross-shard move end to end
// over real TCP: the file vanishes from the source group's store,
// appears on the destination group's with its bytes intact, and the
// routed view agrees; then the rename runs back the other way.
func TestRouterCrossShardRename(t *testing.T) {
	srvs, ring := startShardedPair(t, 1)
	r, err := client.NewRouter(ring, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Mkdir("/d", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}

	src := pathOwnedBy(t, ring, 0, "/d/src%d")
	dst := pathOwnedBy(t, ring, 1, "/d/dst%d")
	if _, err := r.Create(src, vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(src, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	if err := r.Rename(src, dst); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if _, err := srvs[0].Store().Lookup(src); err == nil {
		t.Fatalf("%s still present on source group after rename", src)
	}
	a, err := srvs[1].Store().Lookup(dst)
	if err != nil {
		t.Fatalf("%s missing on destination group: %v", dst, err)
	}
	if data, _, _ := srvs[1].Store().ReadFile(a.ID); string(data) != "payload" {
		t.Fatalf("destination holds %q, want %q", data, "payload")
	}
	data, err := r.Read(dst)
	if err != nil || string(data) != "payload" {
		t.Fatalf("routed read after rename = %q, %v", data, err)
	}
	if _, err := r.Read(src); err == nil {
		t.Fatalf("routed read of %s succeeded after it moved away", src)
	}

	// And back: the mirror-image move must also work (dst is now the
	// source, on group 1).
	if err := r.Rename(dst, src); err != nil {
		t.Fatalf("rename back: %v", err)
	}
	if data, err := r.Read(src); err != nil || string(data) != "payload" {
		t.Fatalf("read after round-trip = %q, %v", data, err)
	}
	if _, err := srvs[1].Store().Lookup(dst); err == nil {
		t.Fatalf("%s still present on group 1 after the move back", dst)
	}
}

// staleRing builds a routing table over the same addresses but with
// group 1 heavily overweighted, so a band of paths the true ring
// assigns to group 0 are believed to belong to group 1 — the shape a
// client's table has after an epoch bump it hasn't heard about.
func staleRing(t *testing.T, truth *shard.Ring) *shard.Ring {
	t.Helper()
	g0, _ := truth.Group(0)
	g1, _ := truth.Group(1)
	stale, err := shard.New(truth.Epoch-1, []shard.Group{
		{ID: 0, Replicas: g0.Replicas},
		{ID: 1, Weight: 8, Replicas: g1.Replicas},
	}, 0)
	if err != nil {
		t.Fatalf("stale ring: %v", err)
	}
	return stale
}

// misroutedPath finds a path the stale table sends to group 1 that the
// true ring assigns to group 0.
func misroutedPath(t *testing.T, truth, stale *shard.Ring) string {
	t.Helper()
	for i := 0; i < 8192; i++ {
		p := fmt.Sprintf("/d/m%d", i)
		if truth.Lookup(p) == 0 && stale.Lookup(p) == 1 {
			return p
		}
	}
	t.Fatal("no misrouted path found")
	return ""
}

// TestRouterStaleRingConverges lands a routed op on a group that no
// longer owns the path — table-driven over the plain, reconnect
// (PR 4), and failover (PR 7) session paths. In every case the refused
// op must converge via NOT_OWNER within the redirect budget: the
// router refetches the epoch-bumped ring from the refusing server and
// the retry lands on the true owner.
func TestRouterStaleRingConverges(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"plain", testStalePlain},
		{"reconnect", testStaleAcrossReconnect},
		{"failover", testStaleAcrossFailover},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

func seedSkeleton(t *testing.T, srvs []*server.Server, path, content string) {
	t.Helper()
	for _, s := range srvs {
		if _, err := s.Store().Mkdir("/d", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
	}
	if path != "" {
		seedFile(t, srvs[0], path, content)
	}
}

func testStalePlain(t *testing.T) {
	srvs, truth := startShardedPair(t, 2)
	stale := staleRing(t, truth)
	p := misroutedPath(t, truth, stale)
	seedSkeleton(t, srvs[:], p, "v1")

	r, err := client.NewRouter(stale, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := r.Read(p)
	if err != nil {
		t.Fatalf("read through stale table: %v", err)
	}
	if string(data) != "v1" {
		t.Fatalf("read = %q, want v1", data)
	}
	if r.Redirects() == 0 {
		t.Fatal("stale route converged without a NOT_OWNER redirect?")
	}
	if got := r.Ring().Epoch; got != truth.Epoch {
		t.Fatalf("router still at epoch %d, want %d", got, truth.Epoch)
	}
	// Converged: the next op must route straight to the owner.
	before := r.Redirects()
	if err := r.Write(p, []byte("v2")); err != nil {
		t.Fatalf("write after convergence: %v", err)
	}
	if r.Redirects() != before {
		t.Fatal("converged table still redirecting")
	}
}

func testStaleAcrossReconnect(t *testing.T) {
	lns, addrs := listeners(t, 2)
	// The ring (server truth and client table alike) routes through
	// fault proxies so the sessions can be severed.
	proxies := make([]*faultnet.Proxy, 2)
	proxyAddrs := make([]string, 2)
	for i, a := range addrs {
		proxies[i] = startProxy(t, a, nil)
		proxyAddrs[i] = proxies[i].Addr()
	}
	truth, err := shard.New(2, []shard.Group{
		{ID: 0, Replicas: proxyAddrs[:1]},
		{ID: 1, Replicas: proxyAddrs[1:]},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*server.Server, 2)
	for i := range srvs {
		srvs[i] = startServerOn(t, server.Config{
			Term:  time.Minute,
			Shard: server.ShardConfig{GroupID: i, Ring: truth},
		}, lns[i])
	}
	stale := staleRing(t, truth)
	p := misroutedPath(t, truth, stale)
	seedSkeleton(t, srvs, p, "v1")

	r, err := client.NewRouter(stale, reconnectCfg("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Establish the (misrouted) group-1 session first, then sever it:
	// the stale-route refusal must ride the reconnect path.
	g1, err := r.GroupCache(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Stat("/"); err != nil {
		t.Fatal(err)
	}
	for _, pr := range proxies {
		pr.SeverAll()
	}
	data, err := r.Read(p)
	if err != nil {
		t.Fatalf("read across sever through stale table: %v", err)
	}
	if string(data) != "v1" {
		t.Fatalf("read = %q, want v1", data)
	}
	if r.Redirects() == 0 {
		t.Fatal("no NOT_OWNER redirect recorded")
	}
	if g1.Metrics().Reconnects == 0 {
		t.Fatal("misrouted session never reconnected; the redirect did not cross a reconnect")
	}
	if got := r.Ring().Epoch; got != truth.Epoch {
		t.Fatalf("router still at epoch %d, want %d", got, truth.Epoch)
	}
}

func testStaleAcrossFailover(t *testing.T) {
	// Group 1 is a 2-replica set gated by a stub master index; group 0
	// is a single server holding the truth for the misrouted path.
	lns, addrs := listeners(t, 3)
	truth, err := shard.New(2, []shard.Group{
		{ID: 0, Replicas: addrs[:1]},
		{ID: 1, Replicas: addrs[1:]},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv0 := startServerOn(t, server.Config{
		Term:  time.Minute,
		Shard: server.ShardConfig{GroupID: 0, Ring: truth},
	}, lns[0])
	master := new(atomic.Int64)
	g1srvs := make([]*server.Server, 2)
	for i := range g1srvs {
		g1srvs[i] = startServerOn(t, server.Config{
			Term:    time.Minute,
			Replica: stubReplica{idx: i, master: master},
			Shard:   server.ShardConfig{GroupID: 1, Ring: truth},
		}, lns[1+i])
		g1srvs[i].Promote(tracing.Context{}, nil, 0)
	}
	stale := staleRing(t, truth)
	p := misroutedPath(t, truth, stale)
	seedSkeleton(t, []*server.Server{srv0, g1srvs[0], g1srvs[1]}, p, "v1")

	r, err := client.NewRouter(stale, failoverCfg("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Pin the misrouted group-1 session to the initial master, then
	// fail over so the refusal comes from the NEW master.
	g1, err := r.GroupCache(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Stat("/"); err != nil {
		t.Fatal(err)
	}
	master.Store(1)
	g1srvs[0].Demote()

	data, err := r.Read(p)
	if err != nil {
		t.Fatalf("read across failover through stale table: %v", err)
	}
	if string(data) != "v1" {
		t.Fatalf("read = %q, want v1", data)
	}
	if r.Redirects() == 0 {
		t.Fatal("no NOT_OWNER redirect recorded")
	}
	if g1.Metrics().Reconnects == 0 {
		t.Fatal("misrouted session never failed over; the redirect did not cross a failover")
	}
	if got := r.Ring().Epoch; got != truth.Epoch {
		t.Fatalf("router still at epoch %d, want %d", got, truth.Epoch)
	}
}

// TestPlainDialGetsNotOwner: a sharded server refuses a foreign path
// with TNotOwner whatever kind of client asked, so a plain Dial to one
// group gets the typed NotOwnerError naming the owner and the ring epoch.
func TestPlainDialGetsNotOwner(t *testing.T) {
	srvs, ring := startShardedPair(t, 3)
	foreign := pathOwnedBy(t, ring, 1, "/d/f%d")
	seedSkeleton(t, srvs[:], "", "")
	seedFile(t, srvs[1], foreign, "v1")
	g0, _ := ring.Group(0)
	c, err := client.Dial(g0.Replicas[0], client.Config{ID: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var no client.NotOwnerError
	if _, err := c.Read(foreign); !errors.As(err, &no) || no.Group != 1 || no.Epoch != ring.Epoch {
		t.Fatalf("foreign read over a plain Dial = %v, want NotOwner{1, %d}", err, ring.Epoch)
	}
	if err := c.Write(foreign, []byte("v2")); !errors.As(err, &no) || no.Group != 1 {
		t.Fatalf("foreign write over a plain Dial = %v, want NotOwner{1, …}", err)
	}
}

// TestUnshardedWireByteIdentical: an unsharded single-group deployment
// moves no shard-protocol frame in either direction through a full op
// workout.
func TestUnshardedWireByteIdentical(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Minute})
	seedFile(t, srv, "/f", "v1")

	c, err := client.Dial(addr, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/g", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/g", "/h"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDir("/"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/h"); err != nil {
		t.Fatal(err)
	}
	ws := c.WireStats()
	for _, mt := range []proto.MsgType{
		proto.TRing, proto.TRingRep, proto.TNotOwner, proto.TShardMove,
	} {
		if n := ws.Frames(mt, "out") + ws.Frames(mt, "in"); n != 0 {
			t.Fatalf("unsharded session moved %d %v frames", n, mt)
		}
	}
}
