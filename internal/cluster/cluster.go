// Package cluster is the one boot path of a lease-server process: a
// server.Server and, in a replicated deployment, the replica.Node
// negotiating the master lease on the peer mesh, with the server only
// accepting sessions (and clearing writes) while this replica holds it.
// cmd/leasesrv, the chaos harness and the tests all start members here,
// so the shipped binary rejoins the way chaos tests it.
package cluster

import (
	"cmp"
	"net"
	"time"

	"leases/internal/obs/tracing"
	"leases/internal/replica"
	"leases/internal/server"
)

// Config is one member's configuration: the server's, plus its place in
// a replica set. Empty Peers is a standalone server.
type Config struct {
	// Server configures the lease server. Its Obs and Tracer serve the
	// node too; its Replica is filled in by New.
	Server server.Config
	// ID is this replica's index into Peers; Peers lists the replica
	// set's peer-mesh addresses in replica-ID order, identical on every
	// member (see replica.NodeConfig).
	ID    int
	Peers []string
	// ElectionTerm is the master-lease term; zero means the lease term,
	// or 10 s when that is zero too. Allowance is the clock margin ε;
	// zero means ElectionTerm/10.
	ElectionTerm, Allowance time.Duration
	// Seed drives election jitter.
	Seed int64
	// Logf, when non-nil, reports how each promotion and rejoin ended.
	Logf func(format string, args ...any)
}

// Member is one booted lease-server process.
type Member struct {
	Server *server.Server
	// Node is the replica's election node; nil for a standalone server.
	Node *replica.Node
	cfg  Config
	// firstBoot: no incarnation wrote the configured max-term file.
	firstBoot bool
	served    chan error
}

// New builds the member's server and, when replicated, its node. The
// caller seeds m.Server.Store(), then calls Start.
func New(cfg Config) (*Member, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Member{cfg: cfg, served: make(chan error, 1)}
	if p := cfg.Server.MaxTermPath; p != "" {
		_, found, err := server.LoadMaxTerm(p)
		if err != nil {
			return nil, err
		}
		m.firstBoot = !found
	}
	if len(cfg.Peers) > 0 {
		et := cmp.Or(cfg.ElectionTerm, cfg.Server.Term, 10*time.Second)
		var err error
		if m.Node, err = replica.NewNode(replica.NodeConfig{
			ID: cfg.ID, Peers: cfg.Peers, Term: et, Allowance: cmp.Or(cfg.Allowance, et/10), Seed: cfg.Seed,
			Obs: cfg.Server.Obs, Tracer: cfg.Server.Tracer,
			// The callbacks close over m.Server, which is assigned below,
			// before Start can fire any of them.
			OnReplApply: func(f replica.FileState) (bool, error) { return m.Server.ApplyReplicated(f.Path, f.Seq, f.Data) },
			OnSyncState: func() ([]replica.FileState, time.Duration) { return m.Server.ReplState(), m.Server.ReplTermFloor() },
			OnMaxTerm:   func(d time.Duration) error { return m.Server.PersistMaxTerm(d) },
			OnRole:      m.onRole,
		}); err != nil {
			return nil, err
		}
		cfg.Server.Replica = nodeReplica{m.Node}
	}
	m.Server = server.New(cfg.Server)
	return m, nil
}

// Start starts the node, catches up from a quorum, and serves ln. The
// catch-up is a diskless rejoin: a restarted replica recovers the
// replicated state and term floor its crash lost, so a later promotion
// never merges against its empty store. It is tried once on every boot
// but a first one (the configured max-term file absent); with no quorum
// the member carries on as a follower. An error means the peer listener
// did not bind: nothing started, ln is still open, Start may be retried.
func (m *Member) Start(ln net.Listener) error {
	if m.Node != nil {
		if err := m.Node.Start(); err != nil {
			return err
		}
		if !m.firstBoot {
			m.rejoin()
		}
	}
	go func() { m.served <- m.Server.Serve(ln) }()
	return nil
}

func (m *Member) rejoin() {
	files, floor, err := m.Node.SyncFromPeers(tracing.Context{})
	if err != nil {
		m.cfg.Logf("replica %d rejoin sync failed: %v", m.cfg.ID, err)
		return
	}
	for _, f := range files {
		m.Server.ApplyReplicated(f.Path, f.Seq, f.Data) // a refused file is left to the next promotion's merge
	}
	if err := m.Server.PersistMaxTerm(floor); err != nil {
		m.cfg.Logf("replica %d rejoin: persisting term floor %v: %v", m.cfg.ID, floor, err)
	}
}

// Wait returns what the server started by Start ended with: nil after Stop.
func (m *Member) Wait() error { return <-m.served }

// Stop stops the node, then the server.
func (m *Member) Stop() {
	if m.Node != nil {
		m.Node.Stop()
	}
	m.Server.Stop()
}

func (m *Member) onRole(r replica.Role, master int) {
	// Sever any sessions left from an earlier mastership era (a demote
	// edge coalesced into this elected one) before the catch-up sync;
	// serving stays gated until Promote.
	m.Server.Demote()
	if r != replica.RoleMaster {
		return
	}
	// The election trace (rooted in the node when it became candidate)
	// covers the whole failover: the catch-up sync, promotion, and §2
	// recovery window record as child spans under it.
	tc := m.Node.ElectionContext()
	syncSp := m.cfg.Server.Tracer.StartChild(tc, "failover.sync")
	files, floor, err := m.Node.SyncForPromotion(tc)
	if err != nil {
		// The mastership lapsed (or the node stopped) before a quorum
		// answered the catch-up sync. Do NOT promote on local evidence:
		// quorum-acked writes this replica never received would be
		// served stale and its unmerged sequence map would poison the
		// whole mastership. The serving gate stays closed; the next
		// election retries.
		syncSp.EndNote("abandoned")
		m.Node.EndElection("abandoned")
		m.cfg.Logf("replica %d promotion abandoned: %v", m.cfg.ID, err)
		return
	}
	syncSp.End()
	m.Server.Promote(tc, files, floor)
	m.Node.EndElection("promoted")
	m.cfg.Logf("replica %d elected master (recovery floor %v)", m.cfg.ID, floor)
}

// nodeReplica adapts a replica.Node to the server.Replica interface,
// keeping the server package free of the election machinery.
type nodeReplica struct{ n *replica.Node }

func (r nodeReplica) IsMaster() bool          { return r.n.IsMaster() }
func (r nodeReplica) MasterIndex() int        { return r.n.MasterIndex() }
func (r nodeReplica) Role() string            { return string(r.n.Role()) }
func (r nodeReplica) MasterExpiry() time.Time { return r.n.MasterExpiry() }
func (r nodeReplica) ReplicateWrite(tc tracing.Context, path string, seq uint64, data []byte) error {
	return r.n.ReplicateWrite(tc, replica.FileState{Path: path, Seq: seq, Data: data})
}
func (r nodeReplica) ReplicateMaxTerm(d time.Duration) error { return r.n.ReplicateMaxTerm(d) }
