package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"leases/internal/vfs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: TRead, ReqID: 42, Payload: []byte("hello")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ReqID != in.ReqID || string(out.Payload) != "hello" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: TOK, ReqID: 7})
	out, err := ReadFrame(&buf)
	if err != nil || out.Type != TOK || out.ReqID != 7 || len(out.Payload) != 0 {
		t.Fatalf("empty payload round trip: %+v %v", out, err)
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		WriteFrame(&buf, Frame{Type: THello, ReqID: uint64(i), Payload: []byte{byte(i)}})
	}
	for i := 0; i < 10; i++ {
		f, err := ReadFrame(&buf)
		if err != nil || f.ReqID != uint64(i) || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d: %+v %v", i, f, err)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end = %v, want EOF", err)
	}
}

func TestFrameTooBigRejected(t *testing.T) {
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFrame+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize write = %v", err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize read = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: TRead, ReqID: 1, Payload: []byte("abcdef")})
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated read = %v", err)
	}
	// Length below header size.
	if _, err := ReadFrame(bytes.NewReader([]byte{3, 0, 0, 0, 1, 2, 3})); !errors.Is(err, ErrTruncated) {
		t.Fatalf("undersize read = %v", err)
	}
}

func TestScalarCodecRoundTrip(t *testing.T) {
	var e Enc
	now := time.Unix(123456789, 987654321)
	e.U8(7).U32(1 << 30).U64(1 << 60).I64(-5).Dur(10 * time.Second).Time(now).Time(time.Time{}).Str("path/to/x").Blob([]byte{1, 2, 3})
	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.I64() != -5 {
		t.Fatal("scalar mismatch")
	}
	if d.Dur() != 10*time.Second {
		t.Fatal("duration mismatch")
	}
	if !d.Time().Equal(now) {
		t.Fatal("time mismatch")
	}
	if !d.Time().IsZero() {
		t.Fatal("zero time not preserved")
	}
	if d.Str() != "path/to/x" {
		t.Fatal("string mismatch")
	}
	b := d.Blob()
	if len(b) != 3 || b[2] != 3 {
		t.Fatal("blob mismatch")
	}
	if d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("decoder state: err=%v remaining=%d", d.Err, d.Remaining())
	}
}

func TestDecShortInputSetsErr(t *testing.T) {
	d := NewDec([]byte{1, 2})
	d.U64()
	if d.Err == nil {
		t.Fatal("short U64 did not set Err")
	}
	// Further reads stay safe.
	if d.Str() != "" || d.U32() != 0 {
		t.Fatal("reads after error returned data")
	}
}

func TestDecHugeStringLengthRejected(t *testing.T) {
	var e Enc
	e.U32(1 << 31)
	d := NewDec(e.Bytes())
	if d.Str() != "" || d.Err == nil {
		t.Fatal("huge declared string length not rejected")
	}
}

func TestAttrRoundTrip(t *testing.T) {
	in := vfs.Attr{
		ID: 42, Name: "latex", IsDir: false, Size: 12345,
		Owner: "root", Perm: vfs.DefaultPerm,
		ModTime: time.Unix(1e9, 500), Version: 17,
	}
	var e Enc
	e.Attr(in)
	out := NewDec(e.Bytes()).Attr()
	if out.ID != in.ID || out.Name != in.Name || out.IsDir != in.IsDir ||
		out.Size != in.Size || out.Owner != in.Owner || out.Perm != in.Perm ||
		!out.ModTime.Equal(in.ModTime) || out.Version != in.Version {
		t.Fatalf("attr round trip: %+v vs %+v", out, in)
	}
}

func TestGrantsRoundTrip(t *testing.T) {
	in := []GrantWire{
		{Datum: vfs.Datum{Kind: vfs.FileData, Node: 5}, Term: 10 * time.Second, Version: 3, Leased: true},
		{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: 1}, Term: 0, Version: 9, Leased: false},
	}
	var e Enc
	e.EncodeGrants(in)
	d := NewDec(e.Bytes())
	out := d.DecodeGrants()
	if d.Err != nil || len(out) != 2 {
		t.Fatalf("grants decode: %v %v", out, d.Err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("grant %d: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestGrantsBogusCountRejected(t *testing.T) {
	var e Enc
	e.U32(1 << 30)
	d := NewDec(e.Bytes())
	if got := d.DecodeGrants(); got != nil || d.Err == nil {
		t.Fatal("bogus grant count not rejected")
	}
}

func TestDataRoundTrip(t *testing.T) {
	in := []vfs.Datum{{Kind: vfs.FileData, Node: 5}, {Kind: vfs.DirBinding, Node: 1}}
	var e Enc
	e.EncodeData(in).EncodeData(nil)
	d := NewDec(e.Bytes())
	if out := d.DecodeData(); d.Err != nil || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("data decode: %v %v", out, d.Err)
	}
	if empty := d.DecodeData(); len(empty) != 0 || d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("empty list: %v err=%v remaining=%d", empty, d.Err, d.Remaining())
	}
}

// TestDataBogusCountAllocatesNothing: a count the payload cannot hold is
// refused before anything is sized from it — a 4-byte TExtend or
// TRelease payload must not cost a 65,536-entry list.
func TestDataBogusCountAllocatesNothing(t *testing.T) {
	var e Enc
	e.U32(1 << 16)
	payload := e.Bytes()
	if n := testing.AllocsPerRun(100, func() {
		d := Dec{b: payload}
		if got := d.DecodeData(); got != nil || d.Err == nil {
			t.Fatal("bogus datum count not rejected")
		}
	}); n != 0 {
		t.Fatalf("rejecting a bogus datum count allocates %v times, want 0", n)
	}
}

func TestChainRoundTrip(t *testing.T) {
	in := []vfs.Edge{
		{Dir: vfs.RootID, Child: 4, IsDir: true},
		{Dir: 4, Child: 9, IsDir: true},
		{Dir: 9, Child: 17},
	}
	var e Enc
	e.EncodeChain(in).EncodeChain(nil)
	d := NewDec(e.Bytes())
	out := d.DecodeChain()
	if d.Err != nil || len(out) != len(in) {
		t.Fatalf("chain decode: %v %v", out, d.Err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, out[i], in[i])
		}
	}
	if empty := d.DecodeChain(); len(empty) != 0 || d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("empty chain: %v err=%v remaining=%d", empty, d.Err, d.Remaining())
	}
}

func TestChainBogusCountRejected(t *testing.T) {
	var e Enc
	e.U32(1 << 30)
	d := NewDec(e.Bytes())
	if got := d.DecodeChain(); got != nil || d.Err == nil {
		t.Fatal("bogus edge count not rejected")
	}
}

// TestResolvedReplyLayouts pins the one lookup layout and the one read
// layout on the wire, byte for byte: TLookupRep is attr, chain, grants;
// TReadRep is the same followed by the contents, the renewal grants and
// the refills; TRead is node then path, exactly one of them set, then the
// renewals.
func TestResolvedReplyLayouts(t *testing.T) {
	attr := vfs.Attr{ID: 9, Name: "f", Size: 2, Owner: "o", Perm: vfs.DefaultPerm, ModTime: time.Unix(0, 5), Version: 3}
	chain := []vfs.Edge{{Dir: 1, Child: 4, IsDir: true}, {Dir: 4, Child: 9}}
	grants := []GrantWire{
		{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: 1}, Term: time.Second, Version: 7, Leased: true},
		{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: 4}, Term: time.Second, Version: 2, Leased: true},
		{Datum: vfs.Datum{Kind: vfs.FileData, Node: 9}, Term: time.Second, Version: 3, Leased: true},
	}
	var rep Enc
	refill := RefillWire{Attr: attr, Grant: grants[2], Data: []byte("hi")}
	rep.Attr(attr).EncodeChain(chain).EncodeGrants(grants).Blob([]byte("hi")).EncodeGrants(grants[:1]).EncodeRefills(nil)
	if room := ReadRepRoom(attr, len(chain), len(grants), 2, 1); room != MaxFrame-len(rep.Bytes()) {
		t.Fatalf("ReadRepRoom = %d, want MaxFrame less the %d bytes encoded", room, len(rep.Bytes()))
	}
	var one Enc
	one.EncodeRefills([]RefillWire{refill})
	if got := len(one.Bytes()) - 4; got != RefillLen(attr) {
		t.Fatalf("a refill encodes to %d bytes, RefillLen says %d", got, RefillLen(attr))
	}
	wantChain := []byte{
		2, 0, 0, 0, // two edges
		1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, // root --d--> 4, a directory
		4, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, // 4 --f--> 9, a file
	}
	var a Enc
	a.Attr(attr)
	if got := rep.Bytes()[len(a.Bytes()):]; !bytes.HasPrefix(got, wantChain) {
		t.Fatalf("chain bytes after the attr:\n got %v\nwant %v", got[:len(wantChain)], wantChain)
	}
	d := NewDec(rep.Bytes())
	if got := d.Attr(); got.ID != attr.ID || got.Version != attr.Version {
		t.Fatalf("attr: %+v", got)
	}
	if got := d.DecodeChain(); len(got) != 2 || got[1] != chain[1] {
		t.Fatalf("chain: %+v", got)
	}
	if got := d.DecodeGrants(); len(got) != 3 || got[2] != grants[2] {
		t.Fatalf("grants: %+v", got)
	}
	if got := d.Blob(); string(got) != "hi" || d.Err != nil {
		t.Fatalf("blob %q err=%v", got, d.Err)
	}
	if got := d.DecodeGrants(); len(got) != 1 || got[0] != grants[0] || d.Err != nil {
		t.Fatalf("renewal grants %+v err=%v", got, d.Err)
	}
	if got := d.DecodeRefills(); len(got) != 0 || d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("refills %+v err=%v remaining=%d", got, d.Err, d.Remaining())
	}
	d = NewDec(one.Bytes())
	if got := d.DecodeRefills(); len(got) != 1 || got[0].Attr.ID != attr.ID || got[0].Grant != refill.Grant || string(got[0].Data) != "hi" || d.Remaining() != 0 {
		t.Fatalf("refill round trip: %+v err=%v", got, d.Err)
	}

	var byPath, byNode Enc
	byPath.U64(0).Str("/d/f").EncodeData(nil)
	byNode.U64(9).Str("").EncodeData([]vfs.Datum{{Kind: vfs.DirBinding, Node: 4}})
	if want := []byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, '/', 'd', '/', 'f', 0, 0, 0, 0}; !bytes.Equal(byPath.Bytes(), want) {
		t.Fatalf("path-addressed TRead: %v", byPath.Bytes())
	}
	if want := []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, byte(vfs.DirBinding), 4, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(byNode.Bytes(), want) {
		t.Fatalf("node-addressed TRead renewing one binding: %v", byNode.Bytes())
	}
}

// TestApprovalRoundTrip: a TApprovalReq is the write and the datum; a
// TApprove adds the refill byte.
func TestApprovalRoundTrip(t *testing.T) {
	in := ApprovalWire{WriteID: 99, Datum: vfs.Datum{Kind: vfs.FileData, Node: 7}}
	var e Enc
	e.EncodeApproval(in)
	if out := NewDec(e.Bytes()).DecodeApproval(); out != in || len(e.Bytes()) != 8+datumLen {
		t.Fatalf("approval request round trip: %+v (%d bytes)", out, len(e.Bytes()))
	}
	for _, refill := range []bool{false, true} {
		in.Refill = refill
		var a Enc
		a.EncodeApprove(in)
		d := NewDec(a.Bytes())
		if out := d.DecodeApprove(); out != in || d.Err != nil || d.Remaining() != 0 || len(a.Bytes()) != 8+datumLen+1 {
			t.Fatalf("approval round trip: %+v err=%v (%d bytes)", out, d.Err, len(a.Bytes()))
		}
	}
	if d := NewDec(e.Bytes()); d.DecodeApprove().Refill || d.Err == nil {
		t.Fatal("an approval without its refill byte decoded")
	}
}

// TestRefillBogusCountAllocatesNothing: like a datum list's, a refill
// count the payload cannot hold fails before anything is allocated.
func TestRefillBogusCountAllocatesNothing(t *testing.T) {
	var e Enc
	e.U32(1 << 30).U64(0)
	if n := testing.AllocsPerRun(100, func() {
		d := NewDec(e.Bytes())
		if got := d.DecodeRefills(); got != nil || d.Err == nil {
			t.Fatal("bogus refill count not rejected")
		}
	}); n != 0 {
		t.Fatalf("rejecting a bogus refill count allocates %v times", n)
	}
}

// Property: any frame round-trips through a buffer.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, reqID uint64, payload []byte) bool {
		// The high bit of the type byte is the trace-header flag, not
		// part of the message type space.
		typ &^= TraceFlag
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		var buf bytes.Buffer
		in := Frame{Type: MsgType(typ), ReqID: reqID, Payload: payload}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil || out.Type != in.Type || out.ReqID != in.ReqID {
			return false
		}
		return bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestDecoderNeverPanicsProperty(t *testing.T) {
	f := func(b []byte) bool {
		d := NewDec(b)
		d.Attr()
		d.DecodeChain()
		d.DecodeGrants()
		d.DecodeData()
		d.DecodeRefills()
		d.DecodeApproval()
		d.DecodeApprove()
		d.Str()
		d.Blob()
		d.Time()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
