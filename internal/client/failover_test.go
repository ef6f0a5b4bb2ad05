package client_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// stubReplica drives the server's replica gate from a test-controlled
// master index shared by every server in the set, so failover tests
// exercise the client's redirect machinery without a real election.
type stubReplica struct {
	idx    int
	master *atomic.Int64
}

func (s stubReplica) IsMaster() bool          { return int(s.master.Load()) == s.idx }
func (s stubReplica) MasterIndex() int        { return int(s.master.Load()) }
func (s stubReplica) MasterExpiry() time.Time { return time.Time{} }
func (s stubReplica) Role() string {
	if s.IsMaster() {
		return "master"
	}
	return "follower"
}
func (s stubReplica) ReplicateWrite(tracing.Context, string, uint64, []byte) error { return nil }
func (s stubReplica) ReplicateMaxTerm(time.Duration) error                         { return nil }

// startReplicaPair boots two servers gated by a shared master index
// (initially 0), both seeded with the same /f content.
func startReplicaPair(t *testing.T) (srvs [2]*server.Server, addrs []string, master *atomic.Int64) {
	t.Helper()
	master = new(atomic.Int64)
	for i := 0; i < 2; i++ {
		srv, addr := startServer(t, server.Config{
			Term:    time.Minute,
			Replica: stubReplica{idx: i, master: master},
		})
		seedFile(t, srv, "/f", "v1")
		// Open the serving gate: a replicated server refuses sessions
		// until a completed Promote, so the stubbed master index alone
		// is not enough to serve.
		srv.Promote(tracing.Context{}, nil, 0)
		srvs[i] = srv
		addrs = append(addrs, addr)
	}
	return srvs, addrs, master
}

func failoverCfg(id string) client.Config {
	cfg := reconnectCfg(id)
	return cfg
}

// TestFailoverRedirectsInFlightPipeline keeps pipelined Read, Write
// and ExtendAll futures in flight across a NOT_MASTER failover: the
// old master demotes (severing the session), the hello retry is
// refused with a redirect hint, and every future must complete against
// the new master within its retry budget. Whether the write reached the
// old master before the demotion is a race the test does not fix; what
// the protocol promises is that it applied exactly once, at the master
// that acknowledged it, and that the session is then pinned to the new
// master, where a later write lands.
func TestFailoverRedirectsInFlightPipeline(t *testing.T) {
	srvs, addrs, master := startReplicaPair(t)

	cfg := failoverCfg("c1")
	cfg.Replicas = addrs
	c, err := client.DialReplicas(cfg)
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("read before failover: %v", err)
	}

	// Queue a window of futures, then fail over while they are (or may
	// still be) in flight.
	reads := make([]*client.ReadCall, 4)
	for i := range reads {
		reads[i] = c.StartRead("/f")
	}
	w := c.StartWrite("/f", []byte("v2"))
	ext := c.StartExtendAll()

	master.Store(1)
	srvs[0].Demote()

	for i, r := range reads {
		if _, err := r.Wait(); err != nil {
			t.Fatalf("pipelined read %d across failover: %v", i, err)
		}
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("pipelined write across failover: %v", err)
	}
	if err := ext.Wait(); err != nil {
		t.Fatalf("pipelined extend-all across failover: %v", err)
	}

	// The stores are independent in this stub world: the write is on the
	// one master that applied and acknowledged it, and only there.
	var at []int
	for i, srv := range srvs {
		got, _, _ := srv.Store().ReadFile(mustLookup(t, srv, "/f"))
		acked := srv.WireStats().Frames(proto.TWriteRep, "out")
		switch {
		case string(got) == "v2" && acked == 1:
			at = append(at, i)
		case string(got) != "v1" || acked != 0:
			t.Errorf("server %d holds %q and acknowledged %d writes", i, got, acked)
		}
	}
	if len(at) != 1 {
		t.Fatalf("the pipelined write applied and acknowledged at servers %v, want exactly one", at)
	}

	// The session is now pinned to the new master.
	if err := c.Write("/f", []byte("v3")); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if got, _, _ := srvs[1].Store().ReadFile(mustLookup(t, srvs[1], "/f")); string(got) != "v3" {
		t.Fatalf("new master holds %q after the next write, want %q", got, "v3")
	}
	if c.Metrics().Reconnects == 0 {
		t.Fatal("failover never counted a reconnect")
	}
}

// TestWriteRefusedByClosedGateResubmitsAtMaster: the old master's gate
// closes before it severs its sessions — it lost the master lease and has
// not run Demote yet — and a write arrives in between. The server severs
// the session rather than answer "not master", so the client redials, is
// redirected to the new master, and the write succeeds there.
func TestWriteRefusedByClosedGateResubmitsAtMaster(t *testing.T) {
	srvs, addrs, master := startReplicaPair(t)
	cfg := failoverCfg("c1")
	cfg.Replicas = addrs
	c, err := client.DialReplicas(cfg)
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("read before failover: %v", err)
	}

	master.Store(1) // server 0's gate is closed; its sessions are still up
	if err := c.Write("/f", []byte("v2")); err != nil {
		t.Fatalf("write between the gate closing and the sever: %v", err)
	}
	for i, want := range []string{"v1", "v2"} {
		if got, _, _ := srvs[i].Store().ReadFile(mustLookup(t, srvs[i], "/f")); string(got) != want {
			t.Errorf("server %d holds %q, want %q", i, got, want)
		}
	}
	srvs[0].Demote()
}

func mustLookup(t *testing.T, srv *server.Server, path string) vfs.NodeID {
	t.Helper()
	a, err := srv.Store().Lookup(path)
	if err != nil {
		t.Fatalf("lookup %s: %v", path, err)
	}
	return a.ID
}

// TestFailoverReconnectStorm demotes the master under a fleet of
// clients at once; every client must land on the new master within a
// single backoff cycle — the NOT_MASTER hint redials immediately
// instead of backing off, so a storm converges in one round trip per
// client rather than a backoff ladder.
func TestFailoverReconnectStorm(t *testing.T) {
	srvs, addrs, master := startReplicaPair(t)

	const fleet = 8
	clients := make([]*client.Cache, fleet)
	for i := range clients {
		cfg := failoverCfg(fmt.Sprintf("storm-%d", i))
		cfg.Replicas = addrs
		// A long floor makes any accidental ladder visible: one cycle is
		// 250ms, two would blow the deadline below.
		cfg.ReconnectBackoff = 250 * time.Millisecond
		cfg.ReconnectMaxBackoff = 250 * time.Millisecond
		c, err := client.DialReplicas(cfg)
		if err != nil {
			t.Fatalf("DialReplicas %d: %v", i, err)
		}
		defer c.Close()
		if _, err := c.Read("/f"); err != nil {
			t.Fatalf("client %d read: %v", i, err)
		}
		clients[i] = c
	}

	master.Store(1)
	start := time.Now()
	srvs[0].Demote()

	// Every session must finish its reconnect — redirect included —
	// against the new master. The deadline allows one backoff sleep
	// plus the redirect round trip; a second backoff cycle per client
	// would overrun it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		settled := 0
		for _, c := range clients {
			if c.Metrics().Reconnects >= 1 {
				settled++
			}
		}
		if settled == fleet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients reconnected within one backoff cycle", settled, fleet)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("storm converged in %v", time.Since(start))

	// Fresh reads (cache was purged on resume) prove each session is
	// live against the new master, without a second reconnect.
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Cache) {
			defer wg.Done()
			_, errs[i] = c.Read("/f")
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d never recovered: %v", i, err)
		}
	}
	for i, c := range clients {
		if got := c.Metrics().Reconnects; got != 1 {
			t.Errorf("client %d reconnected %d times; want exactly 1 (no bouncing)", i, got)
		}
	}
}

// TestExtendAcrossFailoverRevalidates races a batched renewal against a
// master failover: the renewal retries against the new master, which
// happily re-grants (its lease table is per-client, not per-connection)
// — but the client's re-hello dropped everything, and the invalidation
// fence must keep those grants from resurrecting the purged cache.
func TestExtendAcrossFailoverRevalidates(t *testing.T) {
	srvs, addrs, master := startReplicaPair(t)

	cfg := failoverCfg("c1")
	cfg.Replicas = addrs
	c, err := client.DialReplicas(cfg)
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if c.HeldLeases() == 0 {
		t.Fatal("no leases held before failover")
	}

	ext := c.StartExtendAll()
	master.Store(1)
	srvs[0].Demote()
	if err := ext.Wait(); err != nil {
		t.Fatalf("extend across failover: %v", err)
	}
	waitFor(t, func() bool { return c.Metrics().Reconnects >= 1 })
	if held := c.HeldLeases(); held != 0 {
		t.Fatalf("%d leases survived failover despite in-flight extension; want 0", held)
	}
	// The next read must revalidate against the new master.
	before := c.Metrics()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().ReadHits != before.ReadHits {
		t.Fatal("read after failover hit the purged cache")
	}
}

// TestInstalledPortfolioAcrossFailover moves a client with an installed
// portfolio across a failover: the class snapshot is dropped with the
// session, refetched against the new master, and broadcast renewal
// resumes there — traffic continuity, with safety carried by the
// revalidate-on-resume default.
func TestInstalledPortfolioAcrossFailover(t *testing.T) {
	master := new(atomic.Int64)
	var srvs [2]*server.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, addr := startServer(t, server.Config{
			Term:    time.Minute,
			Replica: stubReplica{idx: i, master: master},
			Class: server.ClassConfig{
				InstalledDirs:  []string{"/"},
				InstalledTerm:  2 * time.Second,
				BroadcastEvery: 50 * time.Millisecond,
			},
		})
		seedFile(t, srv, "/f", "v1")
		srv.Promote(tracing.Context{}, nil, 0)
		srvs[i] = srv
		addrs = append(addrs, addr)
	}

	cfg := failoverCfg("c1")
	cfg.Replicas = addrs
	cfg.AutoExtend = 100 * time.Millisecond
	c, err := client.DialReplicas(cfg)
	if err != nil {
		t.Fatalf("DialReplicas: %v", err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, members, stale := c.InstalledClass()
		return members > 0 && !stale
	})

	master.Store(1)
	srvs[0].Demote()
	waitFor(t, func() bool { return c.Metrics().Reconnects >= 1 })
	if _, members, _ := c.InstalledClass(); members != 0 {
		t.Fatalf("portfolio kept %d members across failover; want 0 until refetched", members)
	}
	// A read against the new master promotes there; the portfolio must
	// settle against the new incarnation and broadcasts resume.
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		gen, members, stale := c.InstalledClass()
		return gen > 0 && members > 0 && !stale
	})
}
