package check

import (
	"time"

	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/replica"
	"leases/internal/vfs"
)

// Wire payloads. The model speaks typed structs instead of the TCP
// deployment's byte frames, but the message flow — extend/grant,
// write/ack, approval-request/approve — and the SentAt stamps the
// fence depends on are the same.
type extendReq struct {
	ReqID uint64
	From  core.ClientID
	Data  []vfs.Datum
	// Renew is the renewal list the request carries (TRead's and TWrite's
	// trailer), answered by Renewed.
	Renew []vfs.Datum
	// TC is the client root's trace context — the model analogue of
	// the TraceFlag wire header.
	TC tracing.Context
}

type grantInfo struct {
	proto.GrantWire
	Value string
}

// extendRep and writeAck end with the refills (TReadRep's and TWriteRep's
// trailer): files the client approved a write on while reading them, back
// at the write's version.
type extendRep struct {
	ReqID   uint64
	Grants  []grantInfo
	Renewed []proto.GrantWire
	Refills []grantInfo
}

type writeReq struct {
	ReqID uint64
	From  core.ClientID
	Datum vfs.Datum
	Value string
	Renew []vfs.Datum
	TC    tracing.Context
}

type writeAck struct {
	ReqID   uint64
	Version uint64
	Renewed []proto.GrantWire
	Refills []grantInfo
}

// approveMsg is TApprove: Refill asks for the file back on the next reply.
type approveMsg struct {
	WriteID core.WriteID
	From    core.ClientID
	Datum   vfs.Datum
	Refill  bool
}

// notMasterRep refuses a client op at a non-master replica, carrying
// the replier's belief about who the master is (-1 when unknown). The
// hint is a within-group replica index.
type notMasterRep struct {
	ReqID uint64
	Hint  int
}

// notOwnerRep refuses a path operation at a group that does not own the
// file, naming the owning group — the model analogue of TNotOwner.
type notOwnerRep struct {
	ReqID uint64
	File  int
	Owner int
}

// renameReq asks the file's owning group to move it to the other group
// — the model's cross-shard rename.
type renameReq struct {
	ReqID uint64
	From  core.ClientID
	File  int
	TC    tracing.Context
}

// renameAck acknowledges a committed move, naming the file's new group.
type renameAck struct {
	ReqID uint64
	Owner int
}

// xferMsg is every leg of the cross-shard rename between masters, told
// apart by its wire kind: the move (source → destination, after the
// source's commit point, carrying the bytes and the version they had)
// and its acknowledgement or refusal. XferID is world-unique and dedupes the
// move's retransmissions at the destination.
type xferMsg struct {
	XferID  uint64
	File    int
	Value   string
	Version uint64
}

// electMsg carries one PaxosLease election message between replicas.
type electMsg struct{ M replica.Msg }

// replFrame replicates one write a plan is shipping: the master may
// only apply and ack it after quorum-1 peers have applied Seq. Ballot is
// the election ballot the sender's master lease was won (or last
// renewed) with; receivers fence on it, so a deposed master's late
// frames die even at a peer whose belief has not yet caught up.
type replFrame struct {
	From   int
	Ballot uint64
	File   proto.ReplFile
}

type replAck struct {
	From int
	Path string
	Seq  uint64
}

// syncReq/syncRep implement promotion state sync: a fresh master
// merges quorum-1 peer snapshots before serving, so every write that
// was ever acked (it reached a quorum) is in its store.
type syncReq struct {
	From  int
	ReqID uint64
}

type syncRep struct {
	From  int
	ReqID uint64
	Files []proto.ReplFile
	Floor time.Duration
}

// The §4.3 class frames travel as their wire structs: the periodic
// broadcast extension is a proto.BroadcastExtWire (generation plus class
// term, stamped with the sender's local clock — clients anchor their
// coverage at SentAt + Term − ε, so a delayed delivery can never extend
// belief past the horizon the server recorded before sending);
// classFetch asks for the membership snapshot (TInstalled) and classSnap
// is the reply (TInstalledRep).
type classFetch struct {
	ReqID uint64
	From  core.ClientID
}

type classSnap struct {
	ReqID uint64
	proto.InstalledWire
}
