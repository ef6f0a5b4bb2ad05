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

// TestTraceHeaderCompat: a frame without a valid context carries no
// header, so an unsampled request costs no trace bytes, and a frame
// without the flag decodes with the zero context.
func TestTraceHeaderCompat(t *testing.T) {
	plain := BeginFrame(nil, TWrite, 7)
	plain = append(plain, "data"...)
	if err := FinishFrame(plain, 0); err != nil {
		t.Fatal(err)
	}

	invalid := BeginFrameCtx(nil, TWrite, 7, tracing.Context{TraceID: 1}) // unsampled → invalid
	invalid = append(invalid, "data"...)
	if err := FinishFrame(invalid, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, invalid) {
		t.Fatalf("untraced BeginFrameCtx differs from BeginFrame:\n%x\n%x", plain, invalid)
	}

	f, err := ReadFrame(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace.Valid() || f.Trace != (tracing.Context{}) {
		t.Fatalf("untraced frame decoded with context %+v", f.Trace)
	}
	if f.Type != TWrite || string(f.Payload) != "data" {
		t.Fatalf("untraced frame mangled: %+v", f)
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
