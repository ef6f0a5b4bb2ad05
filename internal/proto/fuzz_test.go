package proto

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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
	// One store mutation of each kind.
	for _, op := range opFixtures() {
		var e Enc
		f.Add(e.EncodeOp(op).Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ds := NewDec(data).DecodeData(); cap(ds)*datumLen > len(data) {
			t.Fatalf("a %d-byte payload sized a %d-datum list", len(data), cap(ds))
		}
		// An op that decodes survives its wire form.
		od := NewDec(data)
		if op := od.DecodeOp(); od.Err == nil {
			var e Enc
			back := NewDec(e.EncodeOp(op).Bytes())
			if got := back.DecodeOp(); back.Err != nil || !reflect.DeepEqual(got, op) {
				t.Fatalf("op %+v came back as %+v (%v)", op, got, back.Err)
			}
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
		d.DecodeOp()
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

// opFixtures is one store mutation of each kind, as a master ships it (no
// node: the wire is path-addressed).
func opFixtures() []vfs.Op {
	return []vfs.Op{
		{Kind: vfs.OpWrite, Path: "/d/f", Data: []byte("abc")},
		{Kind: vfs.OpWrite, Path: "/d/empty", Data: []byte{}},
		{Kind: vfs.OpCreate, Path: "/d/g", Owner: "alice", Perm: vfs.DefaultPerm},
		{Kind: vfs.OpCreate, Path: "/d/moved", Owner: "alice", Perm: vfs.OwnerRead | vfs.OwnerWrite, Data: []byte("bytes")},
		{Kind: vfs.OpMkdir, Path: "/e", Owner: "bob", Perm: vfs.DefaultPerm | vfs.WorldWrite},
		{Kind: vfs.OpRemove, Path: "/d/f"},
		{Kind: vfs.OpRename, Path: "/d/f", To: "/e/f"},
		{Kind: vfs.OpSetPerm, Path: "/d/f", Owner: "carol", Perm: vfs.WorldRead},
	}
}

// TestOpCodec: every kind of store mutation survives its wire form, a
// move-in's contents and a plain create's lack of them included; an
// unknown kind does not decode.
func TestOpCodec(t *testing.T) {
	for _, op := range opFixtures() {
		var e Enc
		d := NewDec(e.EncodeOp(op).Bytes())
		if got := d.DecodeOp(); d.Err != nil || d.Remaining() != 0 || !reflect.DeepEqual(got, op) {
			t.Errorf("op %+v came back as %+v (%v, %d bytes left)", op, got, d.Err, d.Remaining())
		}
	}
	for _, kind := range []vfs.OpKind{0, vfs.OpSetPerm + 1, 255} {
		var e Enc
		d := NewDec(e.EncodeOp(vfs.Op{Kind: kind, Path: "/f", Data: []byte("x")}).Bytes())
		if d.DecodeOp(); !errors.Is(d.Err, vfs.ErrBadOp) {
			t.Errorf("op kind %d decoded with %v, want ErrBadOp", kind, d.Err)
		}
	}
}

// TestHostileOpLengthCostsNothing: an op whose path or contents claims a
// gigabyte its payload does not hold fails before anything is sized from
// the claim.
func TestHostileOpLengthCostsNothing(t *testing.T) {
	var path, data Enc
	path.U8(uint8(vfs.OpCreate)).U32(1 << 30)
	data.U8(uint8(vfs.OpWrite)).Str("/f").Str("").Str("").U8(0).U8(1).U32(1 << 30)
	for _, p := range [][]byte{path.Bytes(), data.Bytes()} {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			d := NewDec(p)
			if d.DecodeOp(); !errors.Is(d.Err, ErrTruncated) {
				t.Fatalf("a %d-byte op claiming 1 GiB decoded with %v, want ErrTruncated", len(p), d.Err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1<<10 {
			t.Errorf("refusing a %d-byte op claiming 1 GiB allocates %d bytes", len(p), per)
		}
	}
}
