package cluster_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/cluster"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// group is three members on loopback, each with its max-term file in a
// directory of its own test.
type group struct {
	t       *testing.T
	dir     string
	peerLns []net.Listener
	peers   []string
	members []*cluster.Member
	addrs   []string
}

// newGroup boots three members, seeding each store with seed (when
// non-nil) before it starts.
func newGroup(t *testing.T, seed func(*vfs.Store)) *group {
	g := &group{t: t, dir: t.TempDir(), peerLns: make([]net.Listener, 3), peers: make([]string, 3)}
	// The peer addresses stay reserved until each member binds its own,
	// so no client listener, here or in a test running beside this one,
	// takes one in between.
	for i := range g.peers {
		g.peerLns[i] = g.listen()
		g.peers[i] = g.peerLns[i].Addr().String()
		t.Cleanup(func() { g.peerLns[i].Close() })
	}
	for i := 0; i < 3; i++ {
		ln := g.listen()
		g.members, g.addrs = append(g.members, g.boot(i, ln, seed)), append(g.addrs, ln.Addr().String())
	}
	return g
}

func (g *group) listen() net.Listener {
	g.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.t.Fatal(err)
	}
	return ln
}

func (g *group) maxTerm(i int) string { return filepath.Join(g.dir, fmt.Sprintf("maxterm-%d", i)) }

// boot builds member i, seeds its store and starts it serving ln.
func (g *group) boot(i int, ln net.Listener, seed func(*vfs.Store)) *cluster.Member {
	g.t.Helper()
	m, err := cluster.New(cluster.Config{
		Server: server.Config{Term: time.Second, MaxTermPath: g.maxTerm(i)},
		ID:     i, Peers: g.peers,
		ElectionTerm: 500 * time.Millisecond, Allowance: 50 * time.Millisecond,
		Seed: int64(i) + 1,
	})
	if err != nil {
		g.t.Fatal(err)
	}
	if seed != nil {
		seed(m.Server.Store())
	}
	g.peerLns[i].Close()
	if err := m.Start(ln); err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(m.Stop)
	return m
}

// dialMaster waits for a member to promote to serving master and opens a
// session to it.
func (g *group) dialMaster(within time.Duration) (*client.Cache, int) {
	g.t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			g.t.Fatalf("no member promoted to serving master within %v", within)
		}
		for i, m := range g.members {
			if m.Node.IsMaster() {
				if c, err := client.Dial(g.addrs[i], client.Config{ID: "w"}); err == nil {
					return c, i
				}
			}
		}
	}
}

// TestRestartedFollowerRejoins boots three members on loopback, acks a
// write, then stops a follower and boots it again with an empty store:
// when Start returns, the member has caught up the acked write from a
// quorum.
func TestRestartedFollowerRejoins(t *testing.T) {
	g := newGroup(t, nil)
	c, master := g.dialMaster(10 * time.Second)
	defer c.Close()
	if _, err := c.Create("/f", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("/f"); err != nil { // a grant: the term raise replicates
		t.Fatal(err)
	}
	if err := c.Write("/f", []byte("acked")); err != nil {
		t.Fatal(err)
	}

	// Every follower holds the write and its max-term file, so whichever
	// peer answers the rejoin's sync has the write, and the restart is
	// not a first boot.
	follower := (master + 1) % 3
	for i, m := range g.members {
		if i == master {
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			_, statErr := os.Stat(g.maxTerm(i))
			if statErr == nil && content(m.Server.Store(), "/f") == "acked" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d: /f = %q, max-term file: %v", i, content(m.Server.Store(), "/f"), statErr)
			}
		}
	}

	ln := g.listen() // before the stop frees the follower's peer address
	g.members[follower].Stop()
	m := g.boot(follower, ln, nil)
	if got := content(m.Server.Store(), "/f"); got != "acked" {
		t.Fatalf("restarted follower %d: /f = %q after Start, want the acked write", follower, got)
	}
}

// TestPromotionPastMaxFrameOfSeededFiles: every member is seeded with
// more than proto.MaxFrame of files replication never wrote. The
// catch-up sync lists none of them, so the group still elects, promotes
// and acknowledges a write within 10 s.
func TestPromotionPastMaxFrameOfSeededFiles(t *testing.T) {
	const n, size = 17, 1 << 20
	if n*size <= proto.MaxFrame {
		t.Fatalf("%d seeded files of %d bytes fit one frame", n, size)
	}
	data := make([]byte, size)
	start := time.Now()
	g := newGroup(t, func(st *vfs.Store) {
		for i := 0; i < n; i++ {
			op := vfs.Op{Kind: vfs.OpCreate, Path: fmt.Sprintf("/seed%d", i), Owner: "root", Perm: vfs.DefaultPerm, Data: data}
			if _, err := st.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
	})
	c, _ := g.dialMaster(10 * time.Second)
	defer c.Close()
	if _, err := c.Create("/f", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("/f", []byte("acked")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("the write was acknowledged %v after boot, want within 10s", d)
	}
}

// TestRejoinBeforeQuery: a rejoining member asks no peer to vouch for
// it — the first step to leaving its quiet period early and voting —
// until its rejoin has applied the term floor a quorum holds. Its two
// peers are fakes that hold the rejoin's sync unanswered and watch its
// connections for a query.
func TestRejoinBeforeQuery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	if err := os.WriteFile(path, []byte("1000000000\n"), 0o644); err != nil { // not a first boot
		t.Fatal(err)
	}
	type frame struct {
		proto.Frame
		c net.Conn
	}
	frames := make(chan frame, 64)
	peers := make([]string, 3)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = ln.Addr().String()
		if i == 2 { // the member's own peer address
			ln.Close()
			continue
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				t.Cleanup(func() { c.Close() })
				go func() {
					for {
						f, err := proto.ReadFrame(c)
						if err != nil {
							return
						}
						frames <- frame{f, c}
					}
				}()
			}
		}()
	}
	m, err := cluster.New(cluster.Config{
		Server: server.Config{Term: time.Second, MaxTermPath: path},
		ID:     2, Peers: peers, ElectionTerm: 2 * time.Second, Allowance: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() { started <- m.Start(ln) }()
	t.Cleanup(func() {
		<-started
		m.Stop()
	})

	// Twenty query periods with the sync held: no query may go out.
	var sync frame
	for hold := time.After(200 * time.Millisecond); ; {
		select {
		case f := <-frames:
			switch f.Type {
			case proto.TQuery:
				t.Fatal("the member asked to be vouched for before its rejoin applied")
			case proto.TReplSync:
				sync = f
			}
			continue
		case <-hold:
		}
		break
	}
	if sync.c == nil {
		t.Fatal("the member sent no rejoin sync")
	}
	var e proto.Enc
	e.U32(0).Dur(5 * time.Second) // no files, a 5 s term floor
	if err := proto.WriteFrame(sync.c, proto.Frame{Type: proto.TReplSyncRep, ReqID: sync.ReqID, Payload: e.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	started <- nil
	if floor, _, err := server.LoadMaxTerm(path); err != nil || floor != 5*time.Second {
		t.Fatalf("max-term file after Start: %v, %v; want the quorum's 5s floor", floor, err)
	}
	// Now the node runs, and its machine asks.
	for deadline := time.After(time.Second); ; {
		select {
		case f := <-frames:
			if f.Type == proto.TQuery {
				return
			}
		case <-deadline:
			t.Fatal("the member never asked to be vouched for after its rejoin")
		}
	}
}

// content reads path from st, or "" when it is absent.
func content(st *vfs.Store, path string) string {
	a, err := st.Lookup(path)
	if err != nil {
		return ""
	}
	b, _, err := st.ReadFile(a.ID)
	if err != nil {
		return ""
	}
	return string(b)
}
