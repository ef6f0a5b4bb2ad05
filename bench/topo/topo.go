// Package topo boots the three deployments the benchmark measures —
// one server, three replicas, two shard groups — in this process, from
// the same public constructors cmd/leasesrv uses, and tears them down
// again without leaving a goroutine behind.
package topo

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"leases/bench/delayline"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/replica"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// Kind names a deployment shape.
type Kind string

const (
	// Single is one standalone server.
	Single Kind = "single"
	// Repl3 is one group of three replicas whose peer links each run
	// through a delay line; clients reach the replicas directly.
	Repl3 Kind = "repl3"
	// Shard2 is two groups of one server each behind one ring.
	Shard2 Kind = "shard2"
)

// Config describes the deployment to boot.
type Config struct {
	Kind Kind
	// Term and Allowance are the file-lease term and the clock
	// allowance ε every server and election node runs with.
	Term, Allowance time.Duration
	// ElectionTerm is the master-lease term of Repl3.
	ElectionTerm time.Duration
	// PeerDelay is the one-way delay of every Repl3 peer link.
	PeerDelay time.Duration
	// Class is passed to every server.
	Class server.ClassConfig
	// Obs and Tracer, when set, instrument every server and node.
	Obs    *obs.Observer
	Tracer *tracing.Tracer
	// Seed drives election jitter.
	Seed int64
	// Files seeds one server's store before it serves. group is the
	// server's ring group (0 outside Shard2) and ring the deployment's
	// ring (nil outside Shard2), so a sharded seeder can place each
	// file on its owner.
	Files func(st *vfs.Store, group int, ring *shard.Ring) error
}

// Topology is a running deployment.
type Topology struct {
	Kind Kind
	// Servers lists every lease server: the one server, the replicas in
	// replica-ID order, or one server per group in group order.
	Servers []*server.Server
	// Addrs are the servers' client addresses, index-aligned with
	// Servers — for Repl3 the client.Config.Replicas value.
	Addrs []string
	// Nodes are the Repl3 election nodes, in replica-ID order.
	Nodes []*replica.Node
	// Lines are the Repl3 peer links: Lines[j] fronts replica j's
	// peer-mesh listener for both other replicas.
	Lines []*delayline.Line
	// Ring is the Shard2 routing table.
	Ring *shard.Ring

	served    []chan error // one per started server: Serve's return
	stopped   []bool       // replicas StopReplica already stopped
	elections atomic.Int64
}

// Elections counts how often a replica has won the master lease since
// Boot: 1 once the first master is up, more after a failover or a
// needless re-election.
func (t *Topology) Elections() int64 { return t.elections.Load() }

// Boot starts the deployment cfg describes and, for Repl3, waits until
// a master is elected.
func Boot(cfg Config) (*Topology, error) {
	t := &Topology{Kind: cfg.Kind}
	var err error
	switch cfg.Kind {
	case Single:
		err = t.bootSingle(cfg)
	case Repl3:
		err = t.bootRepl3(cfg)
	case Shard2:
		err = t.bootShard2(cfg)
	default:
		err = fmt.Errorf("topo: unknown kind %q", cfg.Kind)
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve seeds srv's store, registers it and starts serving on ln.
func (t *Topology) serve(cfg Config, srv *server.Server, ln net.Listener, group int) error {
	t.Servers = append(t.Servers, srv)
	t.Addrs = append(t.Addrs, ln.Addr().String())
	if cfg.Files != nil {
		if err := cfg.Files(srv.Store(), group, t.Ring); err != nil {
			ln.Close()
			return fmt.Errorf("topo: seeding server %d: %w", len(t.Servers)-1, err)
		}
	}
	done := make(chan error, 1)
	t.served = append(t.served, done)
	go func() { done <- srv.Serve(ln) }()
	// Stop must not run before Serve has started its loops (it would
	// wait on a WaitGroup Serve is still adding to), so come back only
	// once the accept loop has answered a hello — with an ack or, from
	// a replica that is not master, a refusal.
	if err := hello(ln.Addr().String()); err != nil {
		select {
		case serr := <-done:
			done <- serr
			if serr != nil {
				err = serr
			}
		default:
		}
		return fmt.Errorf("topo: server %d: %w", len(t.Servers)-1, err)
	}
	return nil
}

// hello opens a throwaway session and waits for any reply to its hello.
func hello(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	var e proto.Enc
	e.Str("topo-probe").U64(0)
	if err := proto.WriteFrame(c, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Bytes()}); err != nil {
		return err
	}
	_, err = proto.ReadFrame(c)
	return err
}

func (t *Topology) bootSingle(cfg Config) error {
	ln, err := listen()
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		Term: cfg.Term, Class: cfg.Class, Obs: cfg.Obs, Tracer: cfg.Tracer,
	})
	return t.serve(cfg, srv, ln, 0)
}

func (t *Topology) bootShard2(cfg Config) error {
	const groups = 2
	lns := make([]net.Listener, groups)
	ringGroups := make([]shard.Group, groups)
	for g := range lns {
		ln, err := listen()
		if err != nil {
			for _, open := range lns[:g] {
				open.Close()
			}
			return err
		}
		lns[g] = ln
		ringGroups[g] = shard.Group{ID: g, Replicas: []string{ln.Addr().String()}}
	}
	ring, err := shard.New(1, ringGroups, 0)
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return err
	}
	t.Ring = ring
	for g, ln := range lns {
		srv := server.New(server.Config{
			Term: cfg.Term, Class: cfg.Class, Obs: cfg.Obs, Tracer: cfg.Tracer,
			Shard: server.ShardConfig{GroupID: g, Ring: ring},
		})
		if err := t.serve(cfg, srv, ln, g); err != nil {
			for _, rest := range lns[g+1:] {
				rest.Close()
			}
			return err
		}
	}
	return nil
}

// replicaAdapter exposes a replica.Node through server.Replica, as
// cmd/leasesrv does.
type replicaAdapter struct{ n *replica.Node }

func (r replicaAdapter) IsMaster() bool          { return r.n.IsMaster() }
func (r replicaAdapter) MasterIndex() int        { return r.n.MasterIndex() }
func (r replicaAdapter) Role() string            { return string(r.n.Role()) }
func (r replicaAdapter) MasterExpiry() time.Time { return r.n.MasterExpiry() }
func (r replicaAdapter) ReplicateMaxTerm(d time.Duration) error {
	return r.n.ReplicateMaxTerm(d)
}
func (r replicaAdapter) ReplicateWrite(tc tracing.Context, path string, seq uint64, data []byte) error {
	return r.n.ReplicateWrite(tc, replica.FileState{Path: path, Seq: seq, Data: data})
}

func (t *Topology) bootRepl3(cfg Config) error {
	const n = 3
	// Reserve every peer-mesh address with an open listener, released
	// just before its node binds, so the lines can name their targets
	// before any node exists.
	peerLns := make([]net.Listener, n)
	defer func() {
		for _, ln := range peerLns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	peerAddrs := make([]string, n)
	for i := range peerLns {
		ln, err := listen()
		if err != nil {
			return err
		}
		peerLns[i] = ln
		peerAddrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		l, err := delayline.New(peerAddrs[i], cfg.PeerDelay)
		if err != nil {
			return err
		}
		t.Lines = append(t.Lines, l)
	}
	t.stopped = make([]bool, n)
	for i := 0; i < n; i++ {
		peers := make([]string, n)
		for j := range peers {
			if j == i {
				peers[j] = peerAddrs[i]
			} else {
				peers[j] = t.Lines[j].Addr()
			}
		}
		// The node's callbacks and the server's Replica refer to each
		// other; both are assigned before either can run.
		var nd *replica.Node
		var srv *server.Server
		nd, err := replica.NewNode(replica.NodeConfig{
			ID: i, Peers: peers, Term: cfg.ElectionTerm, Allowance: cfg.Allowance,
			Seed: cfg.Seed*31 + int64(i) + 1, Obs: cfg.Obs, Tracer: cfg.Tracer,
			OnReplApply: func(f replica.FileState) (bool, error) {
				return srv.ApplyReplicated(f.Path, f.Seq, f.Data)
			},
			OnSyncState: func() ([]replica.FileState, time.Duration) {
				files := srv.ReplState()
				out := make([]replica.FileState, len(files))
				for k, f := range files {
					out[k] = replica.FileState{Path: f.Path, Seq: f.Seq, Data: f.Data}
				}
				return out, srv.ReplTermFloor()
			},
			OnMaxTerm: func(d time.Duration) error { return srv.PersistMaxTerm(d) },
			OnRole: func(r replica.Role, _ int) {
				// Sever sessions of any earlier mastership era first;
				// serving stays gated until Promote reopens it.
				srv.Demote()
				if r != replica.RoleMaster {
					return
				}
				t.elections.Add(1)
				tc := nd.ElectionContext()
				files, floor, err := nd.SyncForPromotion(tc)
				if err != nil {
					// Mastership lapsed before a quorum answered: stay
					// gated, the next election retries.
					nd.EndElection("abandoned")
					return
				}
				out := make([]server.ReplFile, len(files))
				for k, f := range files {
					out[k] = server.ReplFile{Path: f.Path, Seq: f.Seq, Data: f.Data}
				}
				srv.Promote(tc, out, floor)
				nd.EndElection("promoted")
			},
		})
		if err != nil {
			return err
		}
		srv = server.New(server.Config{
			Term: cfg.Term, Class: cfg.Class, Obs: cfg.Obs, Tracer: cfg.Tracer,
			Replica: replicaAdapter{nd},
		})
		ln, err := listen()
		if err != nil {
			return err
		}
		if err := t.serve(cfg, srv, ln, 0); err != nil {
			return err
		}
		peerLns[i].Close()
		peerLns[i] = nil
		t.Nodes = append(t.Nodes, nd)
		if err := nd.Start(); err != nil {
			return err
		}
	}
	_, err := t.WaitMaster(30 * time.Second)
	return err
}

// WaitMaster waits until a running replica holds the master lease and
// returns its index. The winner may still be merging its peers' state;
// a client's DialReplicas rides that out, retrying the refused hello.
func (t *Topology) WaitMaster(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		for i, nd := range t.Nodes {
			if !t.stopped[i] && nd.IsMaster() {
				return i, nil
			}
		}
		if time.Now().After(deadline) {
			return -1, fmt.Errorf("topo: no master within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// StopReplica crash-stops replica i: its election node and its lease
// server die together and its connections drop.
func (t *Topology) StopReplica(i int) {
	if t.stopped[i] {
		return
	}
	t.stopped[i] = true
	t.Nodes[i].Stop()
	t.Servers[i].Stop()
	<-t.served[i]
}

// Close stops everything Boot started and waits for it to end.
func (t *Topology) Close() {
	for i, nd := range t.Nodes {
		if !t.stopped[i] {
			nd.Stop()
		}
	}
	for i, srv := range t.Servers {
		if i < len(t.stopped) && t.stopped[i] {
			continue
		}
		srv.Stop()
		if i < len(t.served) {
			<-t.served[i]
		}
	}
	for _, l := range t.Lines {
		l.Close()
	}
}
