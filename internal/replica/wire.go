package replica

import (
	"fmt"
	"time"

	"leases/internal/proto"
)

// Election messages travel as proto frames with reqID 0; the frame
// type encodes the Msg kind, the payload the rest.

// msgFrames maps each Msg kind onto its frame type.
var msgFrames = [...]proto.MsgType{
	MsgPrepare: proto.TPrepare, MsgPromise: proto.TPromise, MsgPropose: proto.TPropose,
	MsgAccept: proto.TAccept, MsgQuery: proto.TQuery, MsgAnswer: proto.TAnswer,
}

// msgFrameType maps a Msg kind onto its frame type.
func msgFrameType(k MsgKind) proto.MsgType {
	if int(k) >= len(msgFrames) || msgFrames[k] == 0 {
		panic(fmt.Sprintf("replica: unknown msg kind %d", k))
	}
	return msgFrames[k]
}

// frameMsgKind maps a frame type back onto a Msg kind (0 if not an
// election frame).
func frameMsgKind(t proto.MsgType) MsgKind {
	for k, ft := range msgFrames {
		if ft == t && t != 0 {
			return MsgKind(k)
		}
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
	e.U64(m.Nonce).U64(m.Echo)
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
		Nonce:     d.U64(),
		Echo:      d.U64(),
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
