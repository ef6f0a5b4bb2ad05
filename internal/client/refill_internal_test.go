package client

// Scripted-server pins for refills: after this cache approves a write on
// a file it was reading, the file comes back on the reply to its next
// read or write, and is filed like a node-addressed read reply under that
// request's stamp.

import (
	"fmt"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/vfs"
)

const scriptFileG = vfs.NodeID(3)

var rootGrant = proto.GrantWire{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: vfs.RootID}, Term: time.Hour, Version: 1, Leased: true}

// push asks the cache to approve write id on /f.
func (s *fileScript) push(id core.WriteID) error {
	var e proto.Enc
	e.EncodeApproval(proto.ApprovalWire{WriteID: id, Datum: vfs.Datum{Kind: vfs.FileData, Node: scriptFile}})
	return proto.WriteFrame(s.nc, proto.Frame{Type: proto.TApprovalReq, Payload: e.Bytes()})
}

// approval reads the cache's answer to a push.
func (s *fileScript) approval() (proto.ApprovalWire, error) {
	f, err := s.fr.Next()
	if err != nil {
		return proto.ApprovalWire{}, err
	}
	defer f.Recycle()
	if f.Type != proto.TApprove {
		return proto.ApprovalWire{}, fmt.Errorf("got %v, want an approval", f.Type)
	}
	d := proto.NewDec(f.Payload)
	a := d.DecodeApprove()
	return a, d.Err
}

// refillF is /f coming back at version.
func (s *fileScript) refillF(version uint64) proto.RefillWire {
	return proto.RefillWire{
		Attr:  s.attr(version),
		Grant: proto.GrantWire{Datum: vfs.Datum{Kind: vfs.FileData, Node: scriptFile}, Term: time.Hour, Version: version, Leased: true},
		Data:  []byte(fmt.Sprint("v", version)),
	}
}

// replyReadG answers a path-addressed TRead of /g, ending with refills.
func (s *fileScript) replyReadG(req proto.Frame, refills ...proto.RefillWire) error {
	var e proto.Enc
	e.Attr(vfs.Attr{ID: scriptFileG, Name: "g", Owner: "root", Perm: vfs.DefaultPerm | vfs.WorldWrite, Version: 1}).
		EncodeChain([]vfs.Edge{{Dir: vfs.RootID, Child: scriptFileG}}).
		EncodeGrants([]proto.GrantWire{rootGrant, {Datum: vfs.Datum{Kind: vfs.FileData, Node: scriptFileG}, Term: time.Hour, Version: 1, Leased: true}}).
		Blob([]byte("g1")).
		EncodeGrants(nil).
		EncodeRefills(refills)
	return proto.WriteFrame(s.nc, proto.Frame{Type: proto.TReadRep, ReqID: req.ReqID, Payload: e.Bytes()})
}

// TestRefillFiledUntilUnread: the read of /g after an approval on /f
// carries /f back, and the next read of /f is a hit on the new version;
// a callback then asks for /f again (it was read), and the write that
// carries it back is the last: a callback on a refill nobody has read
// since asks for nothing, and the read after it fetches.
func TestRefillFiledUntilUnread(t *testing.T) {
	approvals := make(chan proto.ApprovalWire, 3)
	filed := make(chan struct{})
	c, done := runFileScript(t, clock.NewSim(), func(s *fileScript) error {
		read, err := s.next()
		if err != nil {
			return err
		}
		if err := s.replyRead(read, 1, "v1", true); err != nil {
			return err
		}
		var a proto.ApprovalWire
		for i, id := range []core.WriteID{7, 8, 9} {
			<-filed // the cache has filed the last reply
			if err := s.push(id); err != nil {
				return err
			}
			if a, err = s.approval(); err != nil {
				return err
			}
			approvals <- a
			req, err := s.next()
			if err != nil {
				return err
			}
			switch i {
			case 0:
				err = s.replyReadG(req, s.refillF(2))
			case 1:
				var e proto.Enc
				e.Attr(vfs.Attr{ID: scriptFileG, Version: 2}).EncodeGrants(nil).EncodeRefills([]proto.RefillWire{s.refillF(3)})
				err = proto.WriteFrame(s.nc, proto.Frame{Type: proto.TWriteRep, ReqID: req.ReqID, Payload: e.Bytes()})
			case 2:
				err = s.replyRead(req, 4, "v4", true)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	mustRead(t, c, "v1")
	filed <- struct{}{}
	if a := <-approvals; !a.Refill {
		t.Fatal("a callback on a file the cache read asked for no refill")
	}
	if data, err := c.Read("/g"); err != nil || string(data) != "g1" {
		t.Fatalf("Read(/g) = %q, %v", data, err)
	}
	mustRead(t, c, "v2") // the refill: a hit
	filed <- struct{}{}
	if a := <-approvals; !a.Refill {
		t.Fatal("a callback on a refill the cache read since asked for no refill")
	}
	if err := c.Write("/g", []byte("g2")); err != nil {
		t.Fatal(err)
	}
	filed <- struct{}{}
	if a := <-approvals; a.Refill {
		t.Fatal("a callback on a refill nobody read asked for another")
	}
	mustRead(t, c, "v4")
	if err := <-done; err != nil {
		t.Fatalf("script: %v", err)
	}
	if m := c.Metrics(); m.ReadHits != 1 {
		t.Fatalf("%d hits, want the one on the first refill", m.ReadHits)
	}
}

// TestRefillCrossingPushNotFiled: another write's callback on /f reaches
// the cache ahead of the reply carrying /f back; the refill is filed
// nowhere, and the next read of /f fetches.
func TestRefillCrossingPushNotFiled(t *testing.T) {
	approvals := make(chan proto.ApprovalWire, 2)
	filed := make(chan struct{})
	c, done := runFileScript(t, clock.NewSim(), func(s *fileScript) error {
		read, err := s.next()
		if err != nil {
			return err
		}
		if err := s.replyRead(read, 1, "v1", true); err != nil {
			return err
		}
		<-filed
		for _, id := range []core.WriteID{7, 8} {
			if id == 8 {
				if read, err = s.next(); err != nil {
					return err
				}
			}
			if err := s.push(id); err != nil {
				return err
			}
			a, err := s.approval()
			if err != nil {
				return err
			}
			approvals <- a
		}
		if err := s.replyReadG(read, s.refillF(2)); err != nil {
			return err
		}
		if read, err = s.next(); err != nil {
			return err
		}
		return s.replyRead(read, 3, "v3", true)
	})
	mustRead(t, c, "v1")
	filed <- struct{}{}
	if a := <-approvals; !a.Refill {
		t.Fatal("a callback on a file the cache read asked for no refill")
	}
	if data, err := c.Read("/g"); err != nil || string(data) != "g1" {
		t.Fatalf("Read(/g) = %q, %v", data, err)
	}
	if a := <-approvals; a.Refill {
		t.Fatal("a callback on a file the cache no longer held asked for a refill")
	}
	mustRead(t, c, "v3")
	if err := <-done; err != nil {
		t.Fatalf("script: %v", err)
	}
	if m := c.Metrics(); m.ReadHits != 0 {
		t.Fatalf("%d hits: the refill crossing the callback was filed", m.ReadHits)
	}
}
