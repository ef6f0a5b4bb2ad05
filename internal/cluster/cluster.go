// Package cluster wires one member of a replicated deployment: a
// replica.Node negotiating the master lease on the peer mesh, and the
// server.Server that only accepts sessions (and clears writes) while
// this replica holds it.
package cluster

import (
	"time"

	"leases/internal/obs/tracing"
	"leases/internal/replica"
	"leases/internal/server"
)

// New builds the pair from ncfg and scfg, filling in the replication
// callbacks of the one and the Replica of the other; the caller starts
// the node and serves the server. logf, when non-nil, reports how each
// promotion ended.
func New(ncfg replica.NodeConfig, scfg server.Config, logf func(format string, args ...any)) (*replica.Node, *server.Server, error) {
	// The node's callbacks close over srv, which is assigned before the
	// caller can Start the node — no callback fires until then.
	var nd *replica.Node
	var srv *server.Server
	ncfg.OnReplApply = func(f replica.FileState) (bool, error) { return srv.ApplyReplicated(f.Path, f.Seq, f.Data) }
	ncfg.OnSyncState = func() ([]replica.FileState, time.Duration) { return srv.ReplState(), srv.ReplTermFloor() }
	ncfg.OnMaxTerm = func(d time.Duration) error { return srv.PersistMaxTerm(d) }
	ncfg.OnRole = func(r replica.Role, master int) {
		// Sever any sessions left from an earlier mastership era (a demote
		// edge coalesced into this elected one) before the catch-up sync;
		// serving stays gated until Promote.
		srv.Demote()
		if r != replica.RoleMaster {
			return
		}
		// The election trace (rooted in the node when it became candidate)
		// covers the whole failover: the catch-up sync, promotion, and §2
		// recovery window record as child spans under it.
		tc := nd.ElectionContext()
		syncSp := scfg.Tracer.StartChild(tc, "failover.sync")
		files, floor, err := nd.SyncForPromotion(tc)
		if err != nil {
			// The mastership lapsed (or the node stopped) before a quorum
			// answered the catch-up sync. Do NOT promote on local evidence:
			// quorum-acked writes this replica never received would be
			// served stale and its unmerged sequence map would poison the
			// whole mastership. The serving gate stays closed; the next
			// election retries.
			syncSp.EndNote("abandoned")
			nd.EndElection("abandoned")
			if logf != nil {
				logf("replica %d promotion abandoned: %v", ncfg.ID, err)
			}
			return
		}
		syncSp.End()
		srv.Promote(tc, files, floor)
		nd.EndElection("promoted")
		if logf != nil {
			logf("replica %d elected master (recovery floor %v)", ncfg.ID, floor)
		}
	}
	nd, err := replica.NewNode(ncfg)
	if err != nil {
		return nil, nil, err
	}
	scfg.Replica = nodeReplica{nd}
	srv = server.New(scfg)
	return nd, srv, nil
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
