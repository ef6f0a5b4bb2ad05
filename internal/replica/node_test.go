package replica

import (
	"net"
	"sync"
	"testing"
	"time"

	"leases/internal/obs/tracing"
)

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func startSet(t *testing.T, n int, term time.Duration) []*Node {
	t.Helper()
	addrs := freeAddrs(t, n)
	var nodes []*Node
	for i := 0; i < n; i++ {
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: term,
			Allowance: term / 10, Seed: int64(i) + 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	return nodes
}

// waitMaster polls until exactly one live node is master, returning
// its index (-1 on timeout). skip marks dead nodes.
func waitMaster(nodes []*Node, skip map[int]bool, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, nd := range nodes {
			if skip[i] {
				continue
			}
			if nd.IsMaster() {
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return -1
}

const nodeTerm = 300 * time.Millisecond

// TestNodeElection: three TCP nodes elect exactly one master after the
// boot quiet period.
func TestNodeElection(t *testing.T) {
	nodes := startSet(t, 3, nodeTerm)
	id := waitMaster(nodes, nil, 10*time.Second)
	if id < 0 {
		t.Fatal("no master elected over TCP")
	}
	// Mastership is exclusive at every sample.
	for i := 0; i < 20; i++ {
		masters := 0
		for _, nd := range nodes {
			if nd.IsMaster() {
				masters++
			}
		}
		if masters > 1 {
			t.Fatalf("%d simultaneous masters", masters)
		}
		time.Sleep(nodeTerm / 10)
	}
	// Followers learn who the master is.
	for i, nd := range nodes {
		if i == id {
			continue
		}
		if got := nd.MasterIndex(); got != id {
			t.Logf("follower %d believes master is %d (want %d) — belief may lag", i, got, id)
		}
	}
}

// TestNodeElectionBeforeTerm is TestNodeElection's twin on a long term:
// a cold group's peers vouch for each other, so three nodes with a 2 s
// term elect within 0.5 s instead of sitting out a 2 s quiet period.
func TestNodeElectionBeforeTerm(t *testing.T) {
	start := time.Now()
	nodes := startSet(t, 3, 2*time.Second)
	if id := waitMaster(nodes, nil, 500*time.Millisecond-time.Since(start)); id < 0 {
		t.Fatalf("no master within 0.5 s of boot")
	}
}

// TestNodeFailover: stopping the master yields a new one within a few
// terms.
func TestNodeFailover(t *testing.T) {
	nodes := startSet(t, 3, nodeTerm)
	old := waitMaster(nodes, nil, 10*time.Second)
	if old < 0 {
		t.Fatal("no master elected")
	}
	nodes[old].Stop()
	id := waitMaster(nodes, map[int]bool{old: true}, 10*time.Second)
	if id < 0 || id == old {
		t.Fatalf("no failover after stopping master %d (got %d)", old, id)
	}
}

// TestNodeRoleCallback: OnRole fires with elected/demoted transitions
// in order.
func TestNodeRoleCallback(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var mu sync.Mutex
	roles := map[int][]Role{}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		i := i
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: nodeTerm, Allowance: nodeTerm / 10, Seed: int64(i),
			OnRole: func(r Role, master int) {
				mu.Lock()
				roles[i] = append(roles[i], r)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	id := waitMaster(nodes, nil, 10*time.Second)
	if id < 0 {
		t.Fatal("no master")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		var sawMaster bool
		for _, r := range roles[id] {
			if r == RoleMaster {
				sawMaster = true
			}
		}
		mu.Unlock()
		if sawMaster {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("master %d never got an OnRole(master) callback: %v", id, roles[id])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationRPCs: quorum write replication, max-term replication,
// and catch-up sync over real TCP.
func TestReplicationRPCs(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var mu sync.Mutex
	applied := map[int][]FileState{}
	maxTerms := map[int][]time.Duration{}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		i := i
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: nodeTerm, Allowance: nodeTerm / 10, Seed: int64(i),
			OnReplApply: func(f FileState) (bool, error) {
				mu.Lock()
				applied[i] = append(applied[i], f)
				mu.Unlock()
				return true, nil
			},
			OnSyncState: func() ([]FileState, time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				out := append([]FileState(nil), applied[i]...)
				var floor time.Duration
				for _, d := range maxTerms[i] {
					if d > floor {
						floor = d
					}
				}
				return out, floor
			},
			OnMaxTerm: func(d time.Duration) error {
				mu.Lock()
				maxTerms[i] = append(maxTerms[i], d)
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	id := waitMaster(nodes, nil, 10*time.Second)
	if id < 0 {
		t.Fatal("no master")
	}
	master := nodes[id]
	if err := master.ReplicateWrite(tracing.Context{}, FileState{Path: "/f0", Seq: 1, Data: []byte("hello")}); err != nil {
		t.Fatalf("ReplicateWrite: %v", err)
	}
	if err := master.ReplicateMaxTerm(nodeTerm); err != nil {
		t.Fatalf("ReplicateMaxTerm: %v", err)
	}
	mu.Lock()
	gotApply, gotTerm := 0, 0
	for i := range nodes {
		if i == id {
			continue
		}
		if len(applied[i]) > 0 {
			gotApply++
			if applied[i][0].Path != "/f0" || string(applied[i][0].Data) != "hello" {
				t.Errorf("peer %d applied %+v", i, applied[i][0])
			}
		}
		if len(maxTerms[i]) > 0 {
			gotTerm++
		}
	}
	mu.Unlock()
	if gotApply < 1 {
		t.Fatal("no peer applied the replicated write")
	}
	if gotTerm < 1 {
		t.Fatal("no peer persisted the replicated max term")
	}
	// A promotion merges the new master's OWN state with a quorum sync
	// (self + quorum-1 peers is a quorum, which intersects the write's
	// quorum). Model that merge for each possible successor: the one
	// that applied the push always finds the write in its own state,
	// whatever peer the sync's single needed ack came from.
	found := false
	for _, peerID := range []int{(id + 1) % 3, (id + 2) % 3} {
		files, _, err := nodes[peerID].SyncFromPeers(tracing.Context{})
		if err != nil {
			t.Fatalf("SyncFromPeers from %d: %v", peerID, err)
		}
		mu.Lock()
		own := append([]FileState(nil), applied[peerID]...)
		mu.Unlock()
		for _, f := range append(files, own...) {
			if f.Path == "/f0" && f.Seq == 1 && string(f.Data) == "hello" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no successor's own+synced state contains the replicated write")
	}
}

// TestReplicateWriteHonestAcks: a peer that drops a frame as stale
// answers applied=false, and such answers do not count toward the
// replication quorum — re-replicating an already-replicated sequence
// must fail rather than pretend the bytes landed.
func TestReplicateWriteHonestAcks(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var mu sync.Mutex
	seqs := map[int]map[string]uint64{}
	var nodes []*Node
	for i := 0; i < 3; i++ {
		i := i
		seqs[i] = map[string]uint64{}
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: nodeTerm, Allowance: nodeTerm / 10, Seed: int64(i),
			OnReplApply: func(f FileState) (bool, error) {
				mu.Lock()
				defer mu.Unlock()
				if f.Seq <= seqs[i][f.Path] {
					return false, nil
				}
				seqs[i][f.Path] = f.Seq
				return true, nil
			},
			OnSyncState: func() ([]FileState, time.Duration) { return nil, 0 },
			OnMaxTerm:   func(time.Duration) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	id := waitMaster(nodes, nil, 10*time.Second)
	if id < 0 {
		t.Fatal("no master")
	}
	master := nodes[id]
	if err := master.ReplicateWrite(tracing.Context{}, FileState{Path: "/f0", Seq: 1, Data: []byte("v1")}); err != nil {
		t.Fatalf("first ReplicateWrite: %v", err)
	}
	if err := master.ReplicateWrite(tracing.Context{}, FileState{Path: "/f0", Seq: 1, Data: []byte("v1")}); err == nil {
		t.Fatal("re-replicating an already-held sequence reached quorum on stale drops")
	}
	if err := master.ReplicateWrite(tracing.Context{}, FileState{Path: "/f0", Seq: 2, Data: []byte("v2")}); err != nil {
		t.Fatalf("ReplicateWrite seq 2: %v", err)
	}
}
