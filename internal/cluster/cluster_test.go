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

// TestRestartedFollowerRejoins boots three members on loopback, acks a
// write, then stops a follower and boots it again with an empty store:
// when Start returns, the member has caught up the acked write from a
// quorum.
func TestRestartedFollowerRejoins(t *testing.T) {
	dir := t.TempDir()
	listen := func() net.Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	// The peer addresses stay reserved until each member binds its own,
	// so no client listener, here or in a test running beside this one,
	// takes one in between.
	peerLns, peers := make([]net.Listener, 3), make([]string, 3)
	for i := range peers {
		peerLns[i] = listen()
		peers[i] = peerLns[i].Addr().String()
		t.Cleanup(func() { peerLns[i].Close() })
	}
	maxTerm := func(i int) string { return filepath.Join(dir, fmt.Sprintf("maxterm-%d", i)) }
	boot := func(i int, ln net.Listener) *cluster.Member {
		t.Helper()
		m, err := cluster.New(cluster.Config{
			Server: server.Config{Term: time.Second, MaxTermPath: maxTerm(i)},
			ID:     i, Peers: peers,
			ElectionTerm: 500 * time.Millisecond, Allowance: 50 * time.Millisecond,
			Seed: int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		peerLns[i].Close()
		if err := m.Start(ln); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		return m
	}
	members, addrs := make([]*cluster.Member, 3), make([]string, 3)
	for i := range members {
		ln := listen()
		members[i], addrs[i] = boot(i, ln), ln.Addr().String()
	}

	// The master serves once its promotion completes.
	var c *client.Cache
	master := -1
	for deadline := time.Now().Add(10 * time.Second); c == nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no member promoted to serving master")
		}
		for i, m := range members {
			if m.Node.IsMaster() {
				if cc, err := client.Dial(addrs[i], client.Config{ID: "w"}); err == nil {
					c, master = cc, i
					break
				}
			}
		}
	}
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
	for i, m := range members {
		if i == master {
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			_, statErr := os.Stat(maxTerm(i))
			if statErr == nil && content(m.Server.Store(), "/f") == "acked" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %d: /f = %q, max-term file: %v", i, content(m.Server.Store(), "/f"), statErr)
			}
		}
	}

	ln := listen() // before the stop frees the follower's peer address
	members[follower].Stop()
	m := boot(follower, ln)
	if got := content(m.Server.Store(), "/f"); got != "acked" {
		t.Fatalf("restarted follower %d: /f = %q after Start, want the acked write", follower, got)
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
