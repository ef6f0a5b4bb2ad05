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
