package client

// Scripted-server pins for what a cache may keep when its own read and
// write of one file cross each other or an invalidation: the peer
// answers over a net.Pipe in exactly the order the test dictates.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/proto"
	"leases/internal/vfs"
)

const scriptFile = vfs.NodeID(2)

// fileScript is a one-file ("/f") lease server driven step by step.
type fileScript struct {
	nc net.Conn
	fr *proto.FrameReader
}

// next returns the next request, skipping the approvals the client
// sends back for pushes.
func (s *fileScript) next() (proto.Frame, error) {
	for {
		f, err := s.fr.Next()
		if err != nil || f.Type != proto.TApprove {
			return f, err
		}
		f.Recycle()
	}
}

func (s *fileScript) attr(version uint64) vfs.Attr {
	return vfs.Attr{ID: scriptFile, Name: "f", Owner: "root", Perm: vfs.DefaultPerm | vfs.WorldWrite, Version: version}
}

// replyRead answers a TRead with the file at version, the root edge
// that names it and a lease on the root binding; the file itself is
// leased only when fileLeased.
func (s *fileScript) replyRead(req proto.Frame, version uint64, content string, fileLeased bool) error {
	var e proto.Enc
	e.Attr(s.attr(version)).
		EncodeChain([]vfs.Edge{{Dir: vfs.RootID, Child: scriptFile}}).
		EncodeGrants([]proto.GrantWire{
			{Datum: vfs.Datum{Kind: vfs.DirBinding, Node: vfs.RootID}, Term: time.Hour, Version: 1, Leased: true},
			{Datum: vfs.Datum{Kind: vfs.FileData, Node: scriptFile}, Term: time.Hour, Version: version, Leased: fileLeased},
		}).
		Blob([]byte(content)).
		EncodeGrants(nil).
		EncodeRefills(nil)
	return proto.WriteFrame(s.nc, proto.Frame{Type: proto.TReadRep, ReqID: req.ReqID, Payload: e.Bytes()})
}

func (s *fileScript) replyWrite(req proto.Frame, version uint64) error {
	var e proto.Enc
	e.Attr(s.attr(version)).EncodeGrants(nil).EncodeRefills(nil)
	return proto.WriteFrame(s.nc, proto.Frame{Type: proto.TWriteRep, ReqID: req.ReqID, Payload: e.Bytes()})
}

// runFileScript dials a cache on clk (nil: the real clock) against
// script; the returned channel yields the script's error once it ends.
func runFileScript(t *testing.T, clk clock.Clock, script func(*fileScript) error) (*Cache, <-chan error) {
	t.Helper()
	cn, sn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		fr, err := serveHello(sn, 1)
		if err != nil {
			done <- err
			return
		}
		defer proto.PutReader(fr)
		done <- script(&fileScript{nc: sn, fr: fr})
		// Go on reading until the cache closes: an approval it queued
		// behind the script's last request would otherwise block its
		// coalescer on the unbuffered pipe for good.
		for {
			f, err := fr.Next()
			if err != nil {
				return
			}
			f.Recycle()
		}
	}()
	c, err := NewFromConn(cn, Config{ID: "scripted", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Abandon() })
	return c, done
}

func mustRead(t *testing.T, c *Cache, want string) {
	t.Helper()
	if data, err := c.Read("/f"); err != nil || string(data) != want {
		t.Fatalf("Read(/f) = %q, %v; want %q", data, err, want)
	}
}

// TestCrossedWriteDropsOldCopy: an invalidation of some other datum
// reaches the writer while its write is in flight, so the write's
// reply may not be cached. The write applied all the same, and the
// writer's own lease on the file still stands — the server asks a
// writer for no approval — so the pre-write copy must go, or the next
// read serves it.
func TestCrossedWriteDropsOldCopy(t *testing.T) {
	c, done := runFileScript(t, nil, func(s *fileScript) error {
		read, err := s.next()
		if err != nil {
			return err
		}
		if err := s.replyRead(read, 1, "v1", true); err != nil {
			return err
		}
		write, err := s.next()
		if err != nil {
			return err
		}
		var e proto.Enc
		e.EncodeApproval(proto.ApprovalWire{WriteID: 7, Datum: vfs.Datum{Kind: vfs.FileData, Node: 99}})
		if err := proto.WriteFrame(s.nc, proto.Frame{Type: proto.TApprovalReq, Payload: e.Bytes()}); err != nil {
			return err
		}
		if err := s.replyWrite(write, 2); err != nil {
			return err
		}
		if read, err = s.next(); err != nil {
			return err
		}
		return s.replyRead(read, 2, "v2", true)
	})
	mustRead(t, c, "v1")
	mustRead(t, c, "v1") // cached: the copy the write must not leave behind
	if err := c.Write("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	mustRead(t, c, "v2")
	if err := <-done; err != nil {
		t.Fatalf("script: %v", err)
	}
	if m := c.Metrics(); m.ReadHits != 1 || m.Invalidations != 1 {
		t.Fatalf("metrics %+v, want one hit (before the write) and one invalidation", m)
	}
}

// TestLateReadReplyKeepsNewerWrite: a read and a write of one file are
// in flight together, the server serves the read first, and the caller
// waits on the write first. The read's reply — older than what the
// write just cached — must not bury it, lease and all.
func TestLateReadReplyKeepsNewerWrite(t *testing.T) {
	c, done := runFileScript(t, nil, func(s *fileScript) error {
		read, err := s.next()
		if err != nil {
			return err
		}
		// Name leased, contents not: the next read goes out by node.
		if err := s.replyRead(read, 1, "v1", false); err != nil {
			return err
		}
		if read, err = s.next(); err != nil {
			return err
		}
		write, err := s.next()
		if err != nil {
			return err
		}
		if err := s.replyRead(read, 1, "v1", true); err != nil {
			return err
		}
		if err := s.replyWrite(write, 2); err != nil {
			return err
		}
		// Whatever the cache still asks for gets the current contents.
		for {
			if read, err = s.next(); err != nil {
				return nil
			}
			if err := s.replyRead(read, 2, "v2", true); err != nil {
				return err
			}
		}
	})
	mustRead(t, c, "v1")
	r := c.StartRead("/f")
	w := c.StartWrite("/f", []byte("v2"))
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if data, err := r.Wait(); err != nil || string(data) != "v1" {
		t.Fatalf("the read served before the write = %q, %v", data, err)
	}
	mustRead(t, c, "v2")
	c.Abandon()
	if err := <-done; err != nil {
		t.Fatalf("script: %v", err)
	}
}

// TestRenewalCrossingPushFilesNothing: a write carries the renewals of
// the leases a hit used past half their term, and an approval push
// reaches the cache before the reply: the renewal grants it carries are
// filed nowhere, so once the first grants run out the next read resolves
// nothing locally and goes out by path.
func TestRenewalCrossingPushFilesNothing(t *testing.T) {
	clk := clock.NewSim()
	byPath := make(chan bool, 1)
	c, done := runFileScript(t, clk, func(s *fileScript) error {
		read, err := s.next()
		if err != nil {
			return err
		}
		if err := s.replyRead(read, 1, "v1", true); err != nil {
			return err
		}
		write, err := s.next()
		if err != nil {
			return err
		}
		d := proto.NewDec(write.Payload)
		d.U64()
		d.Blob()
		renew := d.DecodeData()
		if d.Err != nil || len(renew) != 2 {
			return fmt.Errorf("the write renews %v (%v), want the root binding and /f", renew, d.Err)
		}
		var e proto.Enc
		e.EncodeApproval(proto.ApprovalWire{WriteID: 7, Datum: vfs.Datum{Kind: vfs.FileData, Node: 99}})
		if err := proto.WriteFrame(s.nc, proto.Frame{Type: proto.TApprovalReq, Payload: e.Bytes()}); err != nil {
			return err
		}
		e = proto.Enc{}
		e.Attr(s.attr(2)).EncodeGrants([]proto.GrantWire{
			{Datum: renew[0], Term: time.Hour, Version: 1, Leased: true},
			{Datum: renew[1], Term: time.Hour, Version: 2, Leased: true},
		}).EncodeRefills(nil)
		if err := proto.WriteFrame(s.nc, proto.Frame{Type: proto.TWriteRep, ReqID: write.ReqID, Payload: e.Bytes()}); err != nil {
			return err
		}
		if read, err = s.next(); err != nil {
			return err
		}
		byPath <- proto.NewDec(read.Payload).U64() == 0
		return s.replyRead(read, 2, "v2", true)
	})
	mustRead(t, c, "v1")
	clk.Advance(31 * time.Minute)
	mustRead(t, c, "v1") // a hit past half the term: the write renews /f and "/"
	if err := c.Write("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Minute)
	mustRead(t, c, "v2")
	if err := <-done; err != nil {
		t.Fatalf("script: %v", err)
	}
	if !<-byPath {
		t.Fatal("the read after the first grants lapsed resolved its name under a renewal that crossed a push")
	}
}
