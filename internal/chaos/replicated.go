package chaos

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"leases/internal/cluster"
	"leases/internal/faultnet"
	"leases/internal/server"
	"leases/internal/shard"
)

// replicas is the replica-set size for replicated scenarios. Three is
// the smallest set with a meaningful quorum and the deployment the
// README documents.
const replicas = 3

// replSetConfig places a replica set in a larger deployment. The zero
// value is the classic single-group replicated scenario.
type replSetConfig struct {
	// group is this set's replica-group ID on the ring (sharded runs).
	group int
	// ring, when non-nil, makes every replica a sharded server: it
	// gates path ownership and answers ring fetches.
	ring *shard.Ring
	// cliAddrs pre-reserves the client listen addresses so the ring can
	// name them before any replica boots; empty means ephemeral.
	cliAddrs []string
	// cliLns are the open listeners backing cliAddrs, held from
	// reservation to boot so no other process can claim the ports in
	// between; each is consumed (nilled) by the replica that takes it.
	cliLns []net.Listener
	// seedBase offsets every seed drawn for this set, so two groups in
	// one deployment roll different fault and jitter dice.
	seedBase int64
}

// replSet is a 3-replica lease deployment whose members boot through
// internal/cluster, as cmd/leasesrv's do: per replica a PaxosLease node,
// a lease server that only grants while its node holds the master lease,
// and a client listener. Every DIRECTED peer link i→j runs through its
// own faultnet proxy, so scenarios can partition a replica asymmetrically
// — hold what it sends while it still hears its peers — which
// per-listener proxies cannot express.
type replSet struct {
	h   *harness
	cfg replSetConfig // group identity and ring for sharded runs
	dir string        // scratch dir for per-replica max-term files

	// links[i][j] fronts j's peer-mesh listener for node i's exclusive
	// use (nil on the diagonal).
	links [][]*faultnet.Proxy

	mu        sync.Mutex
	members   []*cluster.Member
	peerAddrs []string // real peer-mesh listen addresses, by replica ID
	// peerLns hold the peer addresses open from reservation until each
	// node binds, so a parallel scenario's ephemeral port cannot claim
	// them in between; startReplica closes each just before Start.
	peerLns  []net.Listener
	cliAddrs []string // client listen addresses, by replica ID
	down     []bool
}

// bootReplSet boots one replica set under cfg — a whole deployment for
// the replicated scenarios, one group of several for the sharded ones:
// addresses reserved, the directed-link proxy mesh, then every replica.
func bootReplSet(h *harness, dir string, cfg replSetConfig) (*replSet, error) {
	rs := &replSet{
		h:         h,
		cfg:       cfg,
		dir:       dir,
		members:   make([]*cluster.Member, replicas),
		peerAddrs: make([]string, replicas),
		cliAddrs:  make([]string, replicas),
		down:      make([]bool, replicas),
		links:     make([][]*faultnet.Proxy, replicas),
	}
	copy(rs.cliAddrs, cfg.cliAddrs)
	rs.peerLns = make([]net.Listener, replicas)
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.close()
			return nil, err
		}
		rs.peerLns[i] = ln
		rs.peerAddrs[i] = ln.Addr().String()
	}
	for i := 0; i < replicas; i++ {
		rs.links[i] = make([]*faultnet.Proxy, replicas)
		for j := 0; j < replicas; j++ {
			if j == i {
				continue
			}
			p, err := faultnet.NewProxy(faultnet.ProxyConfig{
				Target: rs.peerAddrs[j],
				Seed:   h.o.Seed*100 + cfg.seedBase + int64(i*replicas+j),
				Obs:    h.obs,
			})
			if err != nil {
				rs.close()
				return nil, err
			}
			rs.links[i][j] = p
		}
	}
	for i := 0; i < replicas; i++ {
		if err := rs.startReplica(i, false); err != nil {
			rs.close()
			return nil, err
		}
	}
	return rs, nil
}

// startReplica boots replica i: its election node (peer list routed
// through its own outbound link proxies), its lease server, and its
// client listener. A restart rebinds the same addresses and — being a
// diskless rejoin with amnesia — catches up from a quorum before it
// serves (cluster.Member.Start).
func (rs *replSet) startReplica(i int, restart bool) error {
	h := rs.h
	peers := make([]string, replicas)
	for j := 0; j < replicas; j++ {
		if j == i {
			peers[j] = rs.peerAddrs[i]
		} else {
			peers[j] = rs.links[i][j].Addr()
		}
	}
	m, err := cluster.New(cluster.Config{
		Server: server.Config{
			Term:         h.o.Term,
			WriteTimeout: h.o.WriteTimeout,
			MaxTermPath:  filepath.Join(rs.dir, fmt.Sprintf("maxterm-g%d-%d", rs.cfg.group, i)),
			Obs:          h.obs,
			Tracer:       h.tracer,
			Shard:        server.ShardConfig{GroupID: rs.cfg.group, Ring: rs.cfg.ring},
		},
		ID: i, Peers: peers,
		// Elections run on a shorter term than file leases so a failover
		// completes well inside the workload's retry budget; the §2
		// recovery window is governed by the replicated FILE-lease term,
		// not this one.
		ElectionTerm: h.o.Term / 2, Allowance: h.o.Term / 20,
		Seed: h.o.Seed*31 + rs.cfg.seedBase + int64(i) + 1,
		Logf: func(format string, args ...any) { h.logf("chaos: "+format, args...) },
	})
	if err != nil {
		return err
	}
	if err := seedFiles(m.Server.Store(), h.ck.seedContents()); err != nil {
		return err
	}
	// A first boot takes the pre-reserved listener when one was held
	// (sharded runs, where the ring already names the address); a
	// restart rebinds the crashed incarnation's address.
	var ln net.Listener
	if !restart && rs.cfg.cliLns != nil && rs.cfg.cliLns[i] != nil {
		ln = rs.cfg.cliLns[i]
		rs.cfg.cliLns[i] = nil
	} else {
		cliAddr := "127.0.0.1:0"
		if restart {
			cliAddr = rs.cliAddrs[i]
		}
		if err := retry(func() (err error) { ln, err = net.Listen("tcp", cliAddr); return err }); err != nil {
			return err
		}
	}
	// Release the held peer reservation at the last instant; the bind
	// retry inside start covers the microscopic gap.
	if pl := rs.peerLns[i]; pl != nil {
		pl.Close()
		rs.peerLns[i] = nil
	}
	if err := h.start(m, ln, fmt.Sprintf("replica %d server", i)); err != nil {
		ln.Close()
		return err
	}
	rs.mu.Lock()
	rs.members[i] = m
	rs.cliAddrs[i] = ln.Addr().String()
	rs.down[i] = false
	rs.mu.Unlock()
	return nil
}

// clientAddrs lists the client-plane addresses in replica-ID order —
// the client.Config.Replicas value.
func (rs *replSet) clientAddrs() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.cliAddrs...)
}

// waitMaster polls for a replica that holds the master lease,
// returning its ID or -1 on timeout.
func (rs *replSet) waitMaster(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		rs.mu.Lock()
		for i, m := range rs.members {
			if rs.down[i] || m == nil {
				continue
			}
			if m.Node.IsMaster() {
				rs.mu.Unlock()
				return i
			}
		}
		rs.mu.Unlock()
		if time.Now().After(deadline) {
			return -1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// crash crash-stops replica i: election node and lease server die
// together, connections drop, nothing is persisted but the max-term
// file (exactly the §2 crash model).
func (rs *replSet) crash(i int) {
	rs.mu.Lock()
	m := rs.members[i]
	rs.down[i] = true
	rs.mu.Unlock()
	if m != nil {
		m.Stop()
	}
}

// restart reboots a crashed replica as a follower on its old
// addresses.
func (rs *replSet) restart(i int) {
	if err := rs.startReplica(i, true); err != nil {
		rs.h.ck.violate("harness", "replica %d restart failed: %v", i, err)
	}
}

// partitionOutbound asymmetrically partitions replica i: everything it
// SENDS to peers is held at the link proxies, while everything peers
// send it still arrives. A master in this state keeps hearing the
// cluster but cannot renew its lease or replicate writes — it must
// demote itself on its own clock within one election term.
func (rs *replSet) partitionOutbound(i int) {
	for j, p := range rs.links[i] {
		if p != nil {
			rs.h.logf("chaos: holding link %d→%d", i, j)
			p.PartitionOneWay(faultnet.Up)
		}
	}
}

// healLinks heals every link proxy, flushing held frames — the stale
// election messages the partitioned replica kept sending arrive late
// and must be rejected by ballot, not by luck.
func (rs *replSet) healLinks() {
	for _, row := range rs.links {
		for _, p := range row {
			if p != nil {
				p.Heal()
			}
		}
	}
}

func (rs *replSet) close() {
	rs.mu.Lock()
	members := append([]*cluster.Member(nil), rs.members...)
	rs.mu.Unlock()
	for _, m := range members {
		if m != nil {
			m.Stop()
		}
	}
	for _, row := range rs.links {
		for _, p := range row {
			if p != nil {
				p.Close()
			}
		}
	}
	for _, ln := range rs.peerLns {
		if ln != nil {
			ln.Close()
		}
	}
}
