package server_test

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// A renewal of a live, uncontended lease runs core.ReuseFactor terms, so
// the first one raises the longest term granted. These tests pin that
// the raise is made durable or replicated before the reply carrying the
// stretched lease leaves, and that a restart's recovery window covers it.

// readTwice takes a lease on node over a raw session as id, then renews
// it with a second read, and returns the renewal's grant of the file.
func readTwice(t *testing.T, nc net.Conn, id string, node vfs.NodeID) proto.GrantWire {
	t.Helper()
	hello(t, nc, id)
	var g proto.GrantWire
	for i := uint64(2); i <= 3; i++ {
		if _, err := nc.Write(frame(t, proto.TRead, i, func(e *proto.Enc) { e.U64(uint64(node)).Str("").EncodeData(nil) })); err != nil {
			t.Fatal(err)
		}
		rep, err := proto.ReadFrame(nc)
		if err != nil || rep.Type != proto.TReadRep {
			t.Fatalf("read %d: %v %v", i, rep.Type, err)
		}
		d := proto.NewDec(rep.Payload)
		d.Attr()
		d.DecodeChain()
		for _, gw := range d.DecodeGrants() {
			if gw.Datum.Kind == vfs.FileData {
				g = gw
			}
		}
		if d.Err != nil {
			t.Fatal(d.Err)
		}
	}
	return g
}

// termReplica is a master that records every max-term raise along with
// how many read replies the server had sent when it was asked, and
// refuses raises past failAbove (when set).
type termReplica struct {
	gateReplica
	srv       func() *server.Server
	failAbove time.Duration

	mu     sync.Mutex
	raises []time.Duration
	sent   []uint64
}

func (r *termReplica) ReplicateMaxTerm(d time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.raises = append(r.raises, d)
	r.sent = append(r.sent, r.srv().WireStats().Frames(proto.TReadRep, "out"))
	if r.failAbove > 0 && d > r.failAbove {
		return errors.New("no quorum")
	}
	return nil
}

// TestStretchedRenewalReplicatesFirst: on a replicated master, the first
// stretched renewal pushes core.ReuseFactor×Term to a quorum before its
// reply is sent, and a raise that fails withdraws the lease.
func TestStretchedRenewalReplicatesFirst(t *testing.T) {
	for _, fail := range []bool{false, true} {
		clk := clock.NewSim()
		r := &termReplica{}
		if fail {
			r.failAbove = parkTerm
		}
		srv, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk, Replica: r})
		r.srv = func() *server.Server { return srv }
		srv.Promote(tracing.Context{}, nil, 0)
		node := seedWritable(t, srv, "/f", "x")
		nc, _ := connect()
		g := readTwice(t, nc, "h", node)

		r.mu.Lock()
		raises, sent := r.raises, r.sent
		r.mu.Unlock()
		if len(raises) != 2 || raises[0] != parkTerm || raises[1] != core.ReuseFactor*parkTerm {
			t.Fatalf("fail=%v: raises %v, want [%v %v]", fail, raises, parkTerm, core.ReuseFactor*parkTerm)
		}
		if sent[1] != 1 {
			t.Errorf("fail=%v: the stretched raise was asked with %d read replies sent, want 1 (before its own)", fail, sent[1])
		}
		if want := !fail; g.Leased != want || (want && g.Term != core.ReuseFactor*parkTerm) {
			t.Errorf("fail=%v: the renewal granted %+v", fail, g)
		}
		if n := len(srv.Snapshot()); fail && n != 0 {
			t.Errorf("a failed raise left %d leases; it must withdraw the lease", n)
		}
	}
}

// TestStretchedRenewalPersistsFirst: on a standalone server the first
// stretched renewal makes core.ReuseFactor×Term durable, and a restart
// defers writes for that long, not one term.
func TestStretchedRenewalPersistsFirst(t *testing.T) {
	clk := clock.NewSim()
	path := filepath.Join(t.TempDir(), "maxterm")
	cfg := server.Config{Term: parkTerm, Clock: clk, MaxTermPath: path}
	srv1, connect1 := startPipeServer(t, cfg)
	node := seedWritable(t, srv1, "/f", "old")
	nc, _ := connect1()
	if g := readTwice(t, nc, "h", node); !g.Leased || g.Term != core.ReuseFactor*parkTerm {
		t.Fatalf("the renewal granted %+v", g)
	}
	if got, found, err := server.LoadMaxTerm(path); err != nil || !found || got != core.ReuseFactor*parkTerm {
		t.Fatalf("persisted max term = %v, %v, %v; want %v", got, found, err, core.ReuseFactor*parkTerm)
	}
	srv1.Stop()

	srv2, connect2 := startPipeServer(t, cfg)
	node = seedWritable(t, srv2, "/f", "old")
	w, _ := connect2()
	hello(t, w, "w")
	done := make(chan error, 1)
	go func() {
		if _, err := w.Write(frame(t, proto.TWrite, 2, func(e *proto.Enc) { e.U64(uint64(node)).Blob([]byte("new")).EncodeData(nil) })); err != nil {
			done <- err
			return
		}
		rep, err := proto.ReadFrame(w)
		if err == nil && rep.Type != proto.TWriteRep {
			err = errors.New("write answered " + rep.Type.String())
		}
		done <- err
	}()
	waitFor(t, "the write to defer", func() bool { return srv2.Metrics().WritesDeferred >= 1 })
	clk.Advance(parkTerm + time.Second)
	select {
	case err := <-done:
		t.Fatalf("the write finished one term after the restart: %v", err)
	default:
	}
	clk.Advance((core.ReuseFactor - 1) * parkTerm)
	within(t, "the write, once the recovery window closed", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}
