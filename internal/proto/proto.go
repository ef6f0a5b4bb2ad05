// Package proto defines the wire protocol spoken between the networked
// lease file server (internal/server) and its caching clients
// (internal/client).
//
// Framing: every message is
//
//	length  uint32  // bytes after this field
//	type    uint8
//	reqID   uint64  // correlates requests and responses; 0 for pushes
//	payload []byte  // type-specific, encoded little-endian
//
// Client→server messages are requests answered by exactly one response
// carrying the same reqID (a write's response may be delayed while the
// server gathers approvals). Server→client approval requests and
// client→server approvals are one-way pushes with reqID 0 — the lease
// protocol's callback path. All integers are little-endian; strings and
// byte slices are length-prefixed with uint32.
//
// Trace header: a frame whose type byte has TraceFlag (0x80) set
// carries a 17-byte trace context — traceID uint64, spanID uint64,
// flags uint8 — between reqID and the payload, decoded into
// Frame.Trace. Every peer understands it; only sampled frames carry it.
//
// There is one protocol and no feature negotiation: every client and
// server in a deployment speaks the whole message set. What a server
// runs (the installed class, a ring) is configuration, and a client
// learns it from the frames the server sends.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// MsgType identifies a message.
type MsgType uint8

// Message types.
const (
	// THello introduces a client (payload: client ID string; bytes after
	// it are ignored). Answered by THelloAck, whose payload is the
	// server's boot ID (uint64). The hello is idempotent: re-sending it
	// on a new connection with the same ID — a client session
	// reconnecting after a fault — replaces the old connection while
	// the server-side lease records, keyed by client ID, survive.
	THello MsgType = iota + 1
	THelloAck
	// TLookup resolves a path (payload: path). Answered by TLookupRep:
	// the named node's attributes, the chain of edges the walk
	// traversed (EncodeChain) and a binding grant for every directory on
	// it, so the client can repeat the whole open locally.
	TLookup
	TLookupRep
	// TRead fetches a file (payload: node, path, renewals). A non-zero
	// node addresses the file directly and the path is empty; node zero
	// asks the server to resolve the path first — lookup and read in one
	// round trip. Answered by TReadRep: attributes, the chain (empty for
	// a node-addressed read), the binding grants followed by the data
	// grant, the contents, the renewal grants, and the refills.
	//
	// Renewals (TRead and TWrite alike) are the leases the client wants
	// extended on this request: a datum list (EncodeData), usually empty,
	// granted like a TExtend batch and answered by a grant list at the
	// reply's end.
	//
	// Refills (TReadRep and TWriteRep alike, EncodeRefills) are files this
	// client approved a write on while reading them, and asked back for
	// (TApprove): each at the write's version under a fresh lease, filed as
	// a node-addressed read reply would be; never the file the reply
	// itself carries. Usually the list is empty.
	TRead
	TReadRep
	// TWrite writes a file through (payload: node, data, renewals).
	// Answered by TWriteRep (attributes, renewal grants, refills) once
	// every conflicting lease is approved or expired.
	TWrite
	TWriteRep
	// TExtend extends leases on a batch of data. Answered by TExtendRep.
	TExtend
	TExtendRep
	// TRelease relinquishes leases (payload: data). Answered by TOK.
	TRelease
	// TReadDir lists a directory (payload: node). Answered by
	// TReadDirRep with entries, version and a lease on the binding.
	TReadDir
	TReadDirRep
	// TCreate / TMkdir / TRemove / TRename mutate bindings; binding
	// writes defer like data writes. Answered by TCreateRep (attr) / TOK,
	// each ending with the directories whose binding changed: (node,
	// binding version now), one pair for create, mkdir and remove, old
	// then new parent for rename (node 0: none on this server).
	TCreate
	TCreateRep
	TMkdir
	TRemove
	TRename
	// TStat fetches attributes (payload: node). Answered by TStatRep.
	TStat
	TStatRep
	// TSetPerm changes a node's owner and permissions (payload: node,
	// owner, perm) — a write to the parent directory's binding datum,
	// deferred like any other write. Answered by TOK.
	TSetPerm
	// TApprovalReq is a server push asking the client to approve a
	// write on a datum it holds a lease over (payload: EncodeApproval).
	TApprovalReq
	// TApprove is the client's push granting approval (payload:
	// EncodeApprove — the approval and the refill byte: set when the
	// client was reading the file and wants it back on its next reply).
	TApprove
	// TOK is the success response of requests with nothing, or only
	// what their own comment names, to return.
	TOK
	// TError carries an error string response.
	TError
	// TNotMaster is the reply a non-master replica gives to THello:
	// payload is the listen address of the replica it believes is master
	// (empty when unknown). The client redials against that hint.
	TNotMaster
	// TPrepare / TPromise / TPropose / TAccept carry the PaxosLease
	// master-election rounds between replicas (internal/replica).
	TPrepare
	TPromise
	TPropose
	TAccept
	// TReplApply pushes a committed mutation from the master to its peers
	// (payload: seq, path, the op in its wire form, EncodeOp); answered by
	// TOK with the same reqID. TReplSync asks a peer for its full replicated file state
	// during a new master's catch-up; TReplSyncRep answers it.
	// TReplMaxTerm replicates a raise of the durable max lease term to a
	// quorum before the grant that caused it is sent.
	TReplApply
	TReplSync
	TReplSyncRep
	TReplMaxTerm
	// TInstalled asks the server for the installed-files class (§4.3):
	// the set of data covered by the client's single directory-granularity
	// lease. Payload: the generation the client already knows (0 for
	// none). Answered by TInstalledRep: generation, term, server send
	// time, and the member datum list. A client sends it once a
	// TBroadcastExt told it the class runs.
	TInstalled
	TInstalledRep
	// TBroadcastExt is the periodic server push (reqID 0) renewing the
	// installed class for every connected holder: generation, term and
	// the server's send time. O(1) payload regardless of class size — the
	// client extends every installed datum it holds, anchored at the
	// stamp. A generation mismatch means the class changed (drop-on-write
	// demotion or promotion); the client refetches with TInstalled.
	TBroadcastExt
	// TPiggyExt is reserved and never sent: the retired server-pushed
	// extension's number, kept so the type values after it stay put.
	TPiggyExt
	// TRing asks a sharded server for its current ring snapshot (empty
	// payload). Answered by TRingRep with the shard.Ring wire form
	// (epoch, groups, replica addresses).
	TRing
	TRingRep
	// TNotOwner is the reply a sharded server gives to a path operation
	// it does not own: payload is the owning group's ID and the server's
	// ring epoch, whatever kind of client asked. A ring-routed client
	// refreshes its routing table (if its epoch is older) and retries
	// against the owner — the sharded analogue of TNotMaster steering.
	TNotOwner
	// TShardMove carries a cross-shard rename from the source group's
	// master to the destination's (payload: ring epoch, then the move-in
	// that recreates the file, EncodeOp), sent once the source has cleared
	// and removed the file. The destination refuses any other op, clears
	// the destination parent's binding per §2 and applies it; it answers TOK,
	// or TError when it refuses before replicating anything, which the
	// source undoes. A failure after that is answered with a TShardMove
	// carrying the error: the outcome is unknown, and nothing is undone.
	TShardMove
)

// TraceFlag marks a frame's type byte as carrying a trace header.
// Message type values must stay below it.
const TraceFlag = 0x80

// traceWireLen is the encoded trace header: traceID, spanID, flags.
const traceWireLen = 8 + 8 + 1

// traceFlagSampled marks the context head-sampled (the only reason to
// send it today; reserved bits must be zero on encode, ignored on
// decode).
const traceFlagSampled = 0x01

// msgTypeNames maps request and push types to stable operation names
// for metrics and tracing. Reply types are derived from their request.
var msgTypeNames = map[MsgType]string{
	THello:        "hello",
	THelloAck:     "hello",
	TLookup:       "lookup",
	TLookupRep:    "lookup",
	TRead:         "read",
	TReadRep:      "read",
	TWrite:        "write",
	TWriteRep:     "write",
	TExtend:       "extend",
	TExtendRep:    "extend",
	TRelease:      "release",
	TReadDir:      "readdir",
	TReadDirRep:   "readdir",
	TCreate:       "create",
	TCreateRep:    "create",
	TMkdir:        "mkdir",
	TRemove:       "remove",
	TRename:       "rename",
	TStat:         "stat",
	TStatRep:      "stat",
	TSetPerm:      "setperm",
	TApprovalReq:  "approval-req",
	TApprove:      "approve",
	TOK:           "ok",
	TError:        "error",
	TNotMaster:    "not-master",
	TPrepare:      "prepare",
	TPromise:      "promise",
	TPropose:      "propose",
	TAccept:       "accept",
	TReplApply:    "repl-apply",
	TReplSync:     "repl-sync",
	TReplSyncRep:  "repl-sync",
	TReplMaxTerm:  "repl-maxterm",
	TInstalled:    "installed",
	TInstalledRep: "installed",
	TBroadcastExt: "broadcast-ext",
	TRing:         "ring",
	TRingRep:      "ring",
	TNotOwner:     "not-owner",
	TShardMove:    "shard-move",
}

// String names the message's operation: request and reply share a name
// ("read"), so a latency keyed by the request type and a trace keyed by
// the reply agree.
func (t MsgType) String() string {
	if n, ok := msgTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type%d", uint8(t))
}

// MaxFrame bounds a frame's payload to keep a malicious peer from
// forcing huge allocations.
const MaxFrame = 16 << 20

// Errors.
var (
	ErrFrameTooBig = errors.New("proto: frame exceeds MaxFrame")
	ErrTruncated   = errors.New("proto: truncated message")
)

// Frame is one decoded message envelope.
type Frame struct {
	Type  MsgType
	ReqID uint64
	// Trace is the frame's trace context; the zero Context for frames
	// without a trace header. Encoders emit a header exactly when
	// Trace.Valid().
	Trace   tracing.Context
	Payload []byte
	// pooled is the backing buffer when the frame came off the frame
	// pool; Recycle returns it.
	pooled *[]byte
}

// framePool recycles frame buffers between messages. Frames on the hot
// path (lease extensions, cached reads, approvals) are tens of bytes;
// without pooling every ReadFrame and WriteFrame allocates afresh.
// Oversized buffers are dropped on the floor rather than pooled so one
// large write doesn't pin megabytes.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

const maxPooled = 64 << 10

func getBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		b := make([]byte, 0, n)
		*bp = b
	}
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooled {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// Recycle returns the frame's backing buffer to the pool. Only call it
// once the payload (and anything aliasing it) is no longer referenced:
// handlers that decode with Dec.Str/Dec.Blob copy out of the buffer, so
// recycling after dispatch is safe; holding a sub-slice of Payload past
// Recycle is not. Recycling is optional — frames whose payloads escape
// are simply left to the garbage collector.
func (f *Frame) Recycle() {
	if f.pooled == nil {
		return
	}
	bp := f.pooled
	f.pooled, f.Payload = nil, nil
	putBuf(bp)
}

// frameHeader is the encoded size of the length, type and reqID fields.
const frameHeader = 4 + 1 + 8

// BeginFrame appends a frame header to dst with a placeholder length
// and returns the extended slice. The caller appends the payload (e.g.
// through EncOn) and then calls FinishFrame with dst's pre-call length
// to patch the length prefix. Together they let an encoder write a
// frame directly into a connection's pending flush buffer with no
// intermediate per-frame copy.
func BeginFrame(dst []byte, t MsgType, reqID uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, byte(t))
	return binary.LittleEndian.AppendUint64(dst, reqID)
}

// BeginFrameCtx is BeginFrame plus a trace header when tc is a valid
// (sampled) context; with the zero context it is exactly BeginFrame.
func BeginFrameCtx(dst []byte, t MsgType, reqID uint64, tc tracing.Context) []byte {
	if !tc.Valid() {
		return BeginFrame(dst, t, reqID)
	}
	dst = append(dst, 0, 0, 0, 0, byte(t)|TraceFlag)
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tc.TraceID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tc.SpanID))
	return append(dst, traceFlagSampled)
}

// FinishFrame patches the length prefix of the frame begun at offset
// start in buf, where start is len(buf) at the BeginFrame call. It
// reports ErrFrameTooBig (leaving the prefix unpatched) if the payload
// appended since exceeds MaxFrame.
func FinishFrame(buf []byte, start int) error {
	payload := len(buf) - start - frameHeader
	if payload > MaxFrame {
		return ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(1+8+payload))
	return nil
}

// AppendFrame appends the fully encoded frame to dst and returns the
// extended slice — the one-shot form of BeginFrame+FinishFrame for
// callers that already hold the payload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxFrame {
		return dst, ErrFrameTooBig
	}
	start := len(dst)
	dst = BeginFrameCtx(dst, f.Type, f.ReqID, f.Trace)
	dst = append(dst, f.Payload...)
	if err := FinishFrame(dst, start); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// WriteFrame encodes and writes one frame. The header and payload are
// assembled into one pooled buffer and issued as a single Write, so a
// frame costs one syscall and no steady-state allocation.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrame {
		return ErrFrameTooBig
	}
	bp := getBuf(frameHeader + traceWireLen + len(f.Payload))
	b, err := AppendFrame((*bp)[:0], f)
	if err == nil {
		_, err = w.Write(b)
	}
	*bp = b
	putBuf(bp)
	return err
}

// ReadFrame reads one frame. The returned frame's payload lives in a
// pooled buffer; call Frame.Recycle once done with it (or don't — see
// Recycle).
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 {
		return Frame{}, ErrTruncated
	}
	if n > MaxFrame+9 {
		return Frame{}, ErrFrameTooBig
	}
	bp := getBuf(int(n))
	body := (*bp)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		putBuf(bp)
		return Frame{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	*bp = body
	f, err := parseBody(body)
	if err != nil {
		putBuf(bp)
		return Frame{}, err
	}
	f.pooled = bp
	return f, nil
}

// parseBody decodes a frame body (everything after the length prefix):
// type, reqID, the optional trace header, and the payload view. The
// payload aliases body.
func parseBody(body []byte) (Frame, error) {
	f := Frame{
		Type:    MsgType(body[0]),
		ReqID:   binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[9:],
	}
	if f.Type&TraceFlag != 0 {
		if len(f.Payload) < traceWireLen {
			return Frame{}, ErrTruncated
		}
		f.Type &^= TraceFlag
		f.Trace = tracing.Context{
			TraceID: tracing.TraceID(binary.LittleEndian.Uint64(f.Payload[0:8])),
			SpanID:  tracing.SpanID(binary.LittleEndian.Uint64(f.Payload[8:16])),
			Sampled: f.Payload[16]&traceFlagSampled != 0,
		}
		f.Payload = f.Payload[traceWireLen:]
	}
	return f, nil
}

// Enc is an append-style payload encoder.
type Enc struct{ b []byte }

// EncOn returns an encoder that appends to buf in place, so a payload
// can be encoded directly into a pending flush buffer (see BeginFrame).
// The caller takes the grown slice back with Bytes.
func EncOn(buf []byte) Enc { return Enc{b: buf} }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends a uint8.
func (e *Enc) U8(v uint8) *Enc { e.b = append(e.b, v); return e }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
	return e
}

// U64 appends a uint64.
func (e *Enc) U64(v uint64) *Enc {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
	return e
}

// I64 appends an int64 (two's complement).
func (e *Enc) I64(v int64) *Enc { return e.U64(uint64(v)) }

// Dur appends a time.Duration.
func (e *Enc) Dur(v time.Duration) *Enc { return e.I64(int64(v)) }

// Time appends a time.Time as Unix nanoseconds (zero time encodes as
// math.MinInt64, preserving "never expires").
func (e *Enc) Time(v time.Time) *Enc {
	if v.IsZero() {
		return e.I64(math.MinInt64)
	}
	return e.I64(v.UnixNano())
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) *Enc {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) *Enc {
	e.U32(uint32(len(b)))
	e.b = append(e.b, b...)
	return e
}

// Datum appends a vfs.Datum.
func (e *Enc) Datum(d vfs.Datum) *Enc {
	return e.U8(uint8(d.Kind)).U64(uint64(d.Node))
}

// Attr appends a vfs.Attr.
func (e *Enc) Attr(a vfs.Attr) *Enc {
	e.U64(uint64(a.ID)).Str(a.Name)
	if a.IsDir {
		e.U8(1)
	} else {
		e.U8(0)
	}
	return e.I64(a.Size).Str(a.Owner).U8(uint8(a.Perm)).Time(a.ModTime).U64(a.Version)
}

// Dec is a cursor-style payload decoder. Decoding past the end sets Err
// and returns zero values; callers check Err once at the end.
type Dec struct {
	b   []byte
	Err error
}

// NewDec returns a decoder over the payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if len(d.b) < n {
		d.Err = ErrTruncated
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads a uint8.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Dur reads a time.Duration.
func (d *Dec) Dur() time.Duration { return time.Duration(d.I64()) }

// Time reads a time.Time written by Enc.Time.
func (d *Dec) Time() time.Time {
	v := d.I64()
	if v == math.MinInt64 || d.Err != nil {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(d.b)) {
		d.Err = ErrTruncated
		return ""
	}
	return string(d.take(int(n)))
}

// Blob reads a length-prefixed byte slice (copied).
func (d *Dec) Blob() []byte {
	n := d.U32()
	if d.Err == nil && uint64(n) > uint64(len(d.b)) {
		d.Err = ErrTruncated
		return nil
	}
	b := d.take(int(n))
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Datum reads a vfs.Datum.
func (d *Dec) Datum() vfs.Datum {
	return vfs.Datum{Kind: vfs.DatumKind(d.U8()), Node: vfs.NodeID(d.U64())}
}

// Attr reads a vfs.Attr.
func (d *Dec) Attr() vfs.Attr {
	var a vfs.Attr
	a.ID = vfs.NodeID(d.U64())
	a.Name = d.Str()
	a.IsDir = d.U8() == 1
	a.Size = d.I64()
	a.Owner = d.Str()
	a.Perm = vfs.Perm(d.U8())
	a.ModTime = d.Time()
	a.Version = d.U64()
	return a
}

// Remaining reports how many undecoded bytes remain.
func (d *Dec) Remaining() int { return len(d.b) }

// GrantWire is the per-datum grant carried in extension and read
// replies.
type GrantWire struct {
	Datum   vfs.Datum
	Term    time.Duration
	Version uint64
	Leased  bool
}

// EncodeGrants appends a grant list.
func (e *Enc) EncodeGrants(gs []GrantWire) *Enc {
	e.U32(uint32(len(gs)))
	for _, g := range gs {
		e.grant(g)
	}
	return e
}

func (e *Enc) grant(g GrantWire) *Enc {
	e.Datum(g.Datum).Dur(g.Term).U64(g.Version)
	if g.Leased {
		return e.U8(1)
	}
	return e.U8(0)
}

// DecodeGrants reads a grant list.
func (d *Dec) DecodeGrants() []GrantWire {
	n := d.U32()
	if d.Err != nil || uint64(n)*18 > uint64(len(d.b)) {
		if n != 0 {
			d.Err = ErrTruncated
		}
		return nil
	}
	out := make([]GrantWire, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.grant())
	}
	return out
}

func (d *Dec) grant() GrantWire {
	return GrantWire{
		Datum:   d.Datum(),
		Term:    d.Dur(),
		Version: d.U64(),
		Leased:  d.U8() == 1,
	}
}

// datumLen is the encoded size of one vfs.Datum.
const datumLen = 1 + 8

// EncodeData appends a count-prefixed datum list.
func (e *Enc) EncodeData(ds []vfs.Datum) *Enc {
	e.U32(uint32(len(ds)))
	for _, d := range ds {
		e.Datum(d)
	}
	return e
}

// DecodeData reads a count-prefixed datum list. The count is checked
// against the bytes that follow before anything is allocated, so a
// hostile count costs nothing.
func (d *Dec) DecodeData() []vfs.Datum {
	n := d.U32()
	if d.Err != nil || uint64(n)*datumLen > uint64(len(d.b)) {
		if n != 0 {
			d.Err = ErrTruncated
		}
		return nil
	}
	out := make([]vfs.Datum, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, d.Datum())
	}
	return out
}

// EncodeChain appends a resolved path's edges, one per component. An
// edge's binding version travels in the grant for its directory, not
// here.
func (e *Enc) EncodeChain(chain []vfs.Edge) *Enc {
	e.U32(uint32(len(chain)))
	for _, g := range chain {
		e.U64(uint64(g.Dir)).U64(uint64(g.Child))
		if g.IsDir {
			e.U8(1)
		} else {
			e.U8(0)
		}
	}
	return e
}

// DecodeChain reads a resolved path's edges.
func (d *Dec) DecodeChain() []vfs.Edge {
	n := d.U32()
	if d.Err != nil || uint64(n)*edgeLen > uint64(len(d.b)) {
		if n != 0 {
			d.Err = ErrTruncated
		}
		return nil
	}
	out := make([]vfs.Edge, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, vfs.Edge{Dir: vfs.NodeID(d.U64()), Child: vfs.NodeID(d.U64()), IsDir: d.U8() == 1})
	}
	return out
}

// ApprovalWire is the payload of TApprovalReq (WriteID, Datum) and of
// TApprove, which adds Refill.
type ApprovalWire struct {
	WriteID core.WriteID
	Datum   vfs.Datum
	// Refill (TApprove only): the holder was reading the file, and asks
	// for it back at the write's version on its next reply.
	Refill bool
}

// EncodeApproval appends a TApprovalReq payload.
func (e *Enc) EncodeApproval(a ApprovalWire) *Enc {
	return e.U64(uint64(a.WriteID)).Datum(a.Datum)
}

// DecodeApproval reads a TApprovalReq payload.
func (d *Dec) DecodeApproval() ApprovalWire {
	return ApprovalWire{
		WriteID: core.WriteID(d.U64()),
		Datum:   d.Datum(),
	}
}

// EncodeApprove appends a TApprove payload: the approval, then the
// refill byte.
func (e *Enc) EncodeApprove(a ApprovalWire) *Enc {
	refill := uint8(0)
	if a.Refill {
		refill = 1
	}
	return e.EncodeApproval(a).U8(refill)
}

// DecodeApprove reads a TApprove payload.
func (d *Dec) DecodeApprove() ApprovalWire {
	a := d.DecodeApproval()
	a.Refill = d.U8() == 1
	return a
}

// RefillWire is one refill ending a TReadRep or TWriteRep: a file the
// client approved a write on while reading it, back at the write's
// version under a fresh lease.
type RefillWire struct {
	Attr  vfs.Attr
	Grant GrantWire
	Data  []byte
}

// Encoded sizes: one GrantWire, one vfs.Edge, the smallest vfs.Attr
// (empty name and owner), and the smallest refill.
const (
	grantLen  = 1 + 8 + 8 + 8 + 1
	edgeLen   = 8 + 8 + 1
	attrMin   = 8 + 4 + 1 + 8 + 4 + 1 + 8 + 8
	refillMin = attrMin + grantLen + 4
)

func attrLen(a vfs.Attr) int { return attrMin + len(a.Name) + len(a.Owner) }

// RefillLen is the encoded size of a refill of the file a describes, its
// contents a.Size bytes: what it adds to a reply. The server sizes a
// refill with it before granting the lease the refill carries.
func RefillLen(a vfs.Attr) int { return attrLen(a) + grantLen + 4 + int(a.Size) }

// ReadRepRoom is how many bytes of refills a TReadRep with these fields
// can still carry within MaxFrame; WriteRepRoom is the same for a
// TWriteRep.
func ReadRepRoom(attr vfs.Attr, chain, grants, data, renewed int) int {
	return MaxFrame - attrLen(attr) - 4 - chain*edgeLen - 4 - grants*grantLen - 4 - data - 4 - renewed*grantLen - 4
}

func WriteRepRoom(attr vfs.Attr, renewed int) int {
	return MaxFrame - attrLen(attr) - 4 - renewed*grantLen - 4
}

// EncodeRefills appends a refill list: a count, then per refill the
// attributes, the grant and the contents.
func (e *Enc) EncodeRefills(rs []RefillWire) *Enc {
	e.U32(uint32(len(rs)))
	for _, r := range rs {
		e.Attr(r.Attr).grant(r.Grant).Blob(r.Data)
	}
	return e
}

// DecodeRefills reads a refill list. Like DecodeData it checks the count
// against the bytes that follow before allocating anything.
func (d *Dec) DecodeRefills() []RefillWire {
	n := d.U32()
	if d.Err != nil || uint64(n)*refillMin > uint64(len(d.b)) {
		if n != 0 {
			d.Err = ErrTruncated
		}
		return nil
	}
	out := make([]RefillWire, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, RefillWire{Attr: d.Attr(), Grant: d.grant(), Data: d.Blob()})
	}
	return out
}

// EncodeOp appends a store mutation, path-addressed (Node is not
// encoded): kind, path, to, owner, perm, then whether contents follow and
// the contents.
func (e *Enc) EncodeOp(op vfs.Op) *Enc {
	e.U8(uint8(op.Kind)).Str(op.Path).Str(op.To).Str(op.Owner).U8(uint8(op.Perm))
	if op.Data == nil {
		return e.U8(0)
	}
	return e.U8(1).Blob(op.Data)
}

// DecodeOp reads a store mutation; an unknown kind is a decode error, so
// no receiver applies it.
func (d *Dec) DecodeOp() vfs.Op {
	op := vfs.Op{Kind: vfs.OpKind(d.U8()), Path: d.Str(), To: d.Str(), Owner: d.Str(), Perm: vfs.Perm(d.U8())}
	if d.U8() == 1 {
		op.Data = d.Blob()
	}
	if d.Err == nil && (op.Kind < vfs.OpWrite || op.Kind > vfs.OpSetPerm) {
		d.Err = fmt.Errorf("proto: %w %d", vfs.ErrBadOp, op.Kind)
	}
	return op
}

// ReplFile is one replicated file's state: what a master ships to its
// followers (TReplApply) and what replicas exchange during a new
// master's catch-up sync (TReplSyncRep). Data is an op (EncodeOp), or
// under the class-membership key the class image.
type ReplFile struct {
	Path string
	Seq  uint64
	Data []byte
}
