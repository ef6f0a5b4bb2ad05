package replica

import (
	"fmt"
	"time"

	"leases/internal/proto"
)

// Election messages travel as proto frames with reqID 0; the frame
// type encodes the Msg kind, the payload the rest.

// msgFrameType maps a Msg kind onto its frame type.
func msgFrameType(k MsgKind) proto.MsgType {
	switch k {
	case MsgPrepare:
		return proto.TPrepare
	case MsgPromise:
		return proto.TPromise
	case MsgPropose:
		return proto.TPropose
	case MsgAccept:
		return proto.TAccept
	}
	panic(fmt.Sprintf("replica: unknown msg kind %d", k))
}

// frameMsgKind maps a frame type back onto a Msg kind (0 if not an
// election frame).
func frameMsgKind(t proto.MsgType) MsgKind {
	switch t {
	case proto.TPrepare:
		return MsgPrepare
	case proto.TPromise:
		return MsgPromise
	case proto.TPropose:
		return MsgPropose
	case proto.TAccept:
		return MsgAccept
	}
	return 0
}

// encodeMsg renders an election message payload.
func encodeMsg(m Msg) []byte {
	var e proto.Enc
	e.I64(int64(m.From)).I64(int64(m.To)).U64(m.Ballot).I64(int64(m.Owner)).Dur(m.Remaining)
	if m.Ack {
		e.U8(1)
	} else {
		e.U8(0)
	}
	return e.Bytes()
}

// decodeMsg parses an election message payload for kind k.
func decodeMsg(k MsgKind, payload []byte) (Msg, error) {
	d := proto.NewDec(payload)
	m := Msg{
		Kind:      k,
		From:      int(d.I64()),
		To:        int(d.I64()),
		Ballot:    d.U64(),
		Owner:     int(d.I64()),
		Remaining: d.Dur(),
		Ack:       d.U8() == 1,
	}
	return m, d.Err
}

// FileState is one replicated file's state, exchanged during a new
// master's catch-up sync and applied by followers.
type FileState = proto.ReplFile

// encodeSyncRep renders a peer's full replicated file state plus its
// max-term floor — the largest lease term it has seen replicated. The
// floor rides the sync because a term raise is only quorum-acked, not
// everywhere: the new master must take the max over a quorum to bound
// its §2 recovery window.
func encodeSyncRep(e *proto.Enc, files []FileState, maxTerm time.Duration) {
	e.U32(uint32(len(files)))
	for _, f := range files {
		e.Str(f.Path).U64(f.Seq).Blob(f.Data)
	}
	e.Dur(maxTerm)
}

// decodeSyncRep parses a sync reply.
func decodeSyncRep(payload []byte) ([]FileState, time.Duration, error) {
	d := proto.NewDec(payload)
	n := d.U32()
	var out []FileState
	for i := uint32(0); i < n && d.Err == nil; i++ {
		out = append(out, FileState{Path: d.Str(), Seq: d.U64(), Data: d.Blob()})
	}
	maxTerm := d.Dur()
	return out, maxTerm, d.Err
}
