package server_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"leases/internal/proto"
	"leases/internal/vfs"
)

// Refills, driven over in-memory pipes on a simulated clock: a holder
// that approves a write on a file it was reading gets the file back, at
// the write's version, on the next reply the connection's reader sends
// it. The holder here speaks the raw protocol, so each test sees exactly
// which reply carries what.

func fileDatum(id vfs.NodeID) vfs.Datum { return vfs.Datum{Kind: vfs.FileData, Node: id} }

// rawRead sends a node-addressed TRead and returns its reply's refills.
func rawRead(t *testing.T, nc net.Conn, reqID uint64, node vfs.NodeID) []proto.RefillWire {
	t.Helper()
	if _, err := nc.Write(frame(t, proto.TRead, reqID, func(e *proto.Enc) { e.U64(uint64(node)).Str("").EncodeData(nil) })); err != nil {
		t.Fatal(err)
	}
	f, err := proto.ReadFrame(nc)
	if err != nil || f.Type != proto.TReadRep || f.ReqID != reqID {
		t.Fatalf("read %d: %v %d %v", reqID, f.Type, f.ReqID, err)
	}
	d := proto.NewDec(f.Payload)
	d.Attr()
	d.DecodeChain()
	d.DecodeGrants()
	d.Blob()
	d.DecodeGrants()
	refills := d.DecodeRefills()
	if d.Err != nil || d.Remaining() != 0 {
		t.Fatalf("read %d: reply %v, %d bytes left", reqID, d.Err, d.Remaining())
	}
	return refills
}

// approveWithRefill answers the next frame on nc, an approval request,
// asking for the file back.
func approveWithRefill(t *testing.T, nc net.Conn) {
	t.Helper()
	var f proto.Frame
	var err error
	within(t, "an approval request", func() { f, err = proto.ReadFrame(nc) })
	if err != nil || f.Type != proto.TApprovalReq {
		t.Fatalf("holder got %v, %v; want an approval request", f.Type, err)
	}
	a := proto.NewDec(f.Payload).DecodeApproval()
	a.Refill = true
	if _, err := nc.Write(frame(t, proto.TApprove, 0, func(e *proto.Enc) { e.EncodeApprove(a) })); err != nil {
		t.Fatal(err)
	}
}

// TestParkedWriteReplyCarriesNoRefills: the holder's own write parks
// behind a mute holder; meanwhile it approves another client's write on
// a file it reads, asking for a refill. The parked write's reply, sent by
// the request's own goroutine, carries nothing; the next reply the reader
// sends carries the file at the new version.
func TestParkedWriteReplyCarriesNoRefills(t *testing.T) {
	srv, clk, dial, connect := renewFixture(t)
	f, _ := srv.Store().Lookup("/f")
	w, _ := srv.Store().Lookup("/w")
	g := seedWritable(t, srv, "/g", "g1")
	muteHolder(t, connect, fileDatum(g)) // until renewTerm
	clk.Advance(renewTerm / 2)

	h, _ := connect()
	hello(t, h, "h")
	rawRead(t, h, 2, f.ID)
	if _, err := h.Write(frame(t, proto.TWrite, 3, func(e *proto.Enc) { e.U64(uint64(g)).Blob([]byte("g2")).EncodeData(nil) })); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "h's write to park", func() bool { return srv.Metrics().WritesDeferred >= 1 })

	wc := dial("writer").StartWrite("/f", []byte("v2"))
	approveWithRefill(t, h)
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}

	clk.Advance(renewTerm/2 + time.Second) // the mute holder's lease runs out
	rep, err := proto.ReadFrame(h)
	if err != nil || rep.Type != proto.TWriteRep || rep.ReqID != 3 {
		t.Fatalf("parked write's reply: %v %d %v", rep.Type, rep.ReqID, err)
	}
	d := proto.NewDec(rep.Payload)
	d.Attr()
	d.DecodeGrants()
	if refills := d.DecodeRefills(); d.Err != nil || len(refills) != 0 {
		t.Fatalf("the parked write's reply carried %d refills (%v)", len(refills), d.Err)
	}

	refills := rawRead(t, h, 4, w.ID)
	if len(refills) != 1 {
		t.Fatalf("the next read carried %d refills, want /f", len(refills))
	}
	if r := refills[0]; r.Attr.ID != f.ID || string(r.Data) != "v2" || !r.Grant.Leased || r.Grant.Version != r.Attr.Version {
		t.Fatalf("refill %+v, want /f at the write's version, leased", r)
	}
}

// bigFile is contents larger than half a frame: a reply carrying one such
// file has no room for a refill of another.
func bigFile(b byte) []byte { return bytes.Repeat([]byte{b}, proto.MaxFrame/2+1<<20) }

// TestRefillOfRepliedFileKeepsItsLease: the holder's first request after
// approving a write on a large file is a read of that file. The reply
// carries the file once, under the lease it grants, and no refill of it,
// so the next write on the file asks the holder.
func TestRefillOfRepliedFileKeepsItsLease(t *testing.T) {
	srv, _, dial, connect := renewFixture(t)
	big := seedWritable(t, srv, "/big", string(bigFile('a')))
	h, _ := connect()
	hello(t, h, "h")
	rawRead(t, h, 2, big)

	writer := dial("writer")
	wc := writer.StartWrite("/big", bigFile('b'))
	approveWithRefill(t, h)
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
	if refills := rawRead(t, h, 3, big); len(refills) != 0 {
		t.Fatalf("the read of the recalled file carried it again as %d refills", len(refills))
	}
	wc = writer.StartWrite("/big", []byte("c"))
	approveWithRefill(t, h) // fails if the read's lease was dropped
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRefillThatDoesNotFitNotGranted: a refill too large for the reply
// being sent waits for a later reply, and until then its holder holds no
// lease on the file, so a write on it asks nobody.
func TestRefillThatDoesNotFitNotGranted(t *testing.T) {
	srv, _, dial, connect := renewFixture(t)
	big := seedWritable(t, srv, "/big", string(bigFile('a')))
	other := seedWritable(t, srv, "/other", string(bigFile('a')))
	w, _ := srv.Store().Lookup("/w")
	h, _ := connect()
	hello(t, h, "h")
	rawRead(t, h, 2, big)

	writer := dial("writer")
	wc := writer.StartWrite("/big", bigFile('b'))
	approveWithRefill(t, h)
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
	if refills := rawRead(t, h, 3, other); len(refills) != 0 {
		t.Fatalf("a reply carrying one large file carried %d refills of another", len(refills))
	}
	var err error
	within(t, "a write on the file no reply carried", func() { err = writer.Write("/big", []byte("c")) })
	if err != nil {
		t.Fatal(err)
	}
	refills := rawRead(t, h, 4, w.ID)
	if len(refills) != 1 {
		t.Fatalf("the next small reply carried %d refills, want /big", len(refills))
	}
	if r := refills[0]; r.Attr.ID != big || string(r.Data) != "c" || !r.Grant.Leased || r.Grant.Version != r.Attr.Version {
		t.Fatalf("refill %+v, want /big at the last write's version, leased", r)
	}
}

// TestRefillForRemovedFileDropped: a file removed after its holder asked
// for it back comes back on no reply.
func TestRefillForRemovedFileDropped(t *testing.T) {
	srv, _, dial, connect := renewFixture(t)
	f, _ := srv.Store().Lookup("/f")
	w, _ := srv.Store().Lookup("/w")
	h, _ := connect()
	hello(t, h, "h")
	rawRead(t, h, 2, f.ID)

	writer := dial("writer")
	wc := writer.StartWrite("/f", []byte("v2"))
	approveWithRefill(t, h)
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	for id := uint64(3); id <= 4; id++ {
		if refills := rawRead(t, h, id, w.ID); len(refills) != 0 {
			t.Fatalf("read %d carried %d refills of a removed file", id, len(refills))
		}
	}
}
