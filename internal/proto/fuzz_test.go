package proto

import (
	"bytes"
	"testing"
	"time"

	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic, and any frame it accepts must re-encode to a stream that parses
// to the same frame.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, Frame{Type: TRead, ReqID: 42, Payload: []byte("hello")})
	f.Add(seed.Bytes())
	var traced bytes.Buffer
	WriteFrame(&traced, Frame{
		Type:    TWrite,
		ReqID:   7,
		Trace:   tracing.Context{TraceID: 0xdeadbeefcafe, SpanID: 0x0123456789ab, Sampled: true},
		Payload: []byte("traced"),
	})
	f.Add(traced.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	// Trace flag set but the 17-byte header truncated.
	f.Add([]byte{10, 0, 0, 0, byte(TWrite) | TraceFlag, 1, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if werr := WriteFrame(&buf, fr); werr != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", werr)
		}
		fr2, rerr := ReadFrame(&buf)
		if rerr != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", rerr)
		}
		if fr2.Type != fr.Type || fr2.ReqID != fr.ReqID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", fr2, fr)
		}
		// A valid decoded context must survive the round trip; an
		// invalid one (header present but unsampled) normalizes away
		// rather than resurrecting as valid.
		if fr.Trace.Valid() && fr2.Trace != fr.Trace {
			t.Fatalf("trace context lost: %+v vs %+v", fr2.Trace, fr.Trace)
		}
		if !fr.Trace.Valid() && fr2.Trace.Valid() {
			t.Fatalf("invalid trace context resurrected: %+v", fr2.Trace)
		}
	})
}

// FuzzDec exercises every decoder primitive on arbitrary bytes: no
// panics, and after any error all further reads return zero values.
func FuzzDec(f *testing.F) {
	var e Enc
	e.Attr(attrFixture()).EncodeGrants(nil).Str("x")
	f.Add(e.Bytes())
	// A TReadRep: attr, chain, grants, contents.
	var rep Enc
	rep.Attr(attrFixture()).
		EncodeChain([]vfs.Edge{{Dir: vfs.RootID, Child: 3, IsDir: true}, {Dir: 3, Child: 7}}).
		EncodeGrants([]GrantWire{{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: 3}, Term: time.Second, Version: 1, Leased: true}}).
		Blob([]byte("abc"))
	f.Add(rep.Bytes())
	// A chain whose count outruns the payload.
	var short Enc
	short.Attr(attrFixture()).U32(3).U64(1)
	f.Add(short.Bytes())
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	// A renewal list, and a datum count its payload cannot hold.
	var read Enc
	read.EncodeData([]vfs.Datum{{Kind: vfs.FileData, Node: 7}, {Kind: vfs.DirBinding, Node: 1}})
	f.Add(read.Bytes())
	f.Add([]byte{0, 0, 1, 0})
	// A refill list, one cut short, and an approval with its refill byte.
	var refills Enc
	refills.EncodeRefills([]RefillWire{{Attr: attrFixture(), Grant: GrantWire{Datum: vfs.Datum{Kind: vfs.FileData, Node: 7}, Term: time.Second, Version: 2, Leased: true}, Data: []byte("abc")}})
	f.Add(refills.Bytes())
	f.Add(refills.Bytes()[:len(refills.Bytes())-2])
	var approve Enc
	approve.EncodeApprove(ApprovalWire{WriteID: 3, Datum: vfs.Datum{Kind: vfs.FileData, Node: 7}, Refill: true})
	f.Add(approve.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if ds := NewDec(data).DecodeData(); cap(ds)*datumLen > len(data) {
			t.Fatalf("a %d-byte payload sized a %d-datum list", len(data), cap(ds))
		}
		if rs := NewDec(data).DecodeRefills(); cap(rs)*refillMin > len(data) {
			t.Fatalf("a %d-byte payload sized a %d-refill list", len(data), cap(rs))
		}
		d := NewDec(data)
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
		d.Dur()
		if d.Err != nil {
			if d.U64() != 0 || d.Str() != "" {
				t.Fatal("reads after decode error returned data")
			}
		}
	})
}

func attrFixture() vfs.Attr {
	return vfs.Attr{ID: 7, Name: "f", Size: 3, Owner: "root", Perm: vfs.DefaultPerm, ModTime: time.Unix(1, 0), Version: 2}
}
