package proto

import (
	"bytes"
	"testing"

	"leases/internal/obs/tracing"
)

var testCtx = tracing.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00, Sampled: true}

// TestTraceHeaderRoundTrip: a frame written with a valid trace context
// decodes with the same context, type and payload on every decode path
// (ReadFrame and FrameReader).
func TestTraceHeaderRoundTrip(t *testing.T) {
	in := Frame{Type: TWrite, ReqID: 99, Trace: testCtx, Payload: []byte("payload")}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	if wire[4] != byte(TWrite)|TraceFlag {
		t.Fatalf("type byte = %#x, want trace flag set", wire[4])
	}

	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TWrite || out.ReqID != 99 || out.Trace != testCtx || !bytes.Equal(out.Payload, []byte("payload")) {
		t.Fatalf("ReadFrame round trip: %+v", out)
	}

	fr := NewFrameReader(bytes.NewReader(wire))
	out2, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Type != TWrite || out2.ReqID != 99 || out2.Trace != testCtx || !bytes.Equal(out2.Payload, []byte("payload")) {
		t.Fatalf("FrameReader round trip: %+v", out2)
	}
}

// TestTraceHeaderCoalescerRoundTrip: AppendPayload carries a valid
// context; Append carries none.
func TestTraceHeaderCoalescerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	co := NewCoalescer(&buf)
	if !co.AppendPayload(TWrite, 1, testCtx, nil) {
		t.Fatal("AppendPayload refused")
	}
	if !co.AppendPayload(TRead, 2, testCtx, []byte("b")) {
		t.Fatal("AppendPayload refused")
	}
	if !co.Append(TExtend, 3, nil) {
		t.Fatal("Append refused")
	}
	co.Close()

	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	for i, want := range []struct {
		typ MsgType
		tc  tracing.Context
	}{{TWrite, testCtx}, {TRead, testCtx}, {TExtend, tracing.Context{}}} {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want.typ || f.Trace != want.tc {
			t.Fatalf("frame %d: type=%v trace=%+v, want %v %+v", i, f.Type, f.Trace, want.typ, want.tc)
		}
	}
}

// TestTraceHeaderCompat pins the negotiation contract from both sides:
// an untraced frame is byte-identical to the pre-trace encoding (what
// an old peer receives), and a frame without the flag decodes with the
// zero context (what an old peer sends).
func TestTraceHeaderCompat(t *testing.T) {
	old := BeginFrame(nil, TWrite, 7)
	old = append(old, "data"...)
	if err := FinishFrame(old, 0); err != nil {
		t.Fatal(err)
	}

	invalid := BeginFrameCtx(nil, TWrite, 7, tracing.Context{TraceID: 1}) // unsampled → invalid
	invalid = append(invalid, "data"...)
	if err := FinishFrame(invalid, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, invalid) {
		t.Fatalf("untraced BeginFrameCtx differs from BeginFrame:\n%x\n%x", old, invalid)
	}

	f, err := ReadFrame(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace.Valid() || f.Trace != (tracing.Context{}) {
		t.Fatalf("old-peer frame decoded with context %+v", f.Trace)
	}
	if f.Type != TWrite || string(f.Payload) != "data" {
		t.Fatalf("old-peer frame mangled: %+v", f)
	}
}

// TestTraceHeaderTruncated: a flagged frame whose body is shorter than
// the header is rejected as truncated, not mis-sliced.
func TestTraceHeaderTruncated(t *testing.T) {
	body := []byte{byte(TWrite) | TraceFlag, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}
	wire := []byte{byte(len(body)), 0, 0, 0}
	wire = append(wire, body...)
	if _, err := ReadFrame(bytes.NewReader(wire)); err != ErrTruncated {
		t.Fatalf("ReadFrame err = %v, want ErrTruncated", err)
	}
	fr := NewFrameReader(bytes.NewReader(wire))
	if _, err := fr.Next(); err != ErrTruncated {
		t.Fatalf("FrameReader err = %v, want ErrTruncated", err)
	}
}

// TestHelloFeatureTrailing pins the negotiation vehicle: a hello
// payload with trailing feature bits still yields the ID to a decoder
// that only reads the string, and the features to one that knows to
// look.
func TestHelloFeatureTrailing(t *testing.T) {
	var e Enc
	e.Str("client-1").U64(FeatTrace)

	oldDec := NewDec(e.Bytes())
	if id := oldDec.Str(); id != "client-1" || oldDec.Err != nil {
		t.Fatalf("pre-feature decode: id=%q err=%v", id, oldDec.Err)
	}

	newDec := NewDec(e.Bytes())
	_ = newDec.Str()
	feats := uint64(0)
	if newDec.Remaining() >= 8 {
		feats = newDec.U64()
	}
	if feats&FeatTrace == 0 {
		t.Fatalf("features = %#x, want FeatTrace", feats)
	}

	// An old client's hello has no feature bits: absence decodes as 0.
	var bare Enc
	bare.Str("client-2")
	d := NewDec(bare.Bytes())
	_ = d.Str()
	if d.Remaining() != 0 {
		t.Fatal("bare hello left trailing bytes")
	}
}
