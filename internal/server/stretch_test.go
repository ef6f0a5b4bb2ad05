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

// A renewal of a live, uncontended lease runs core.ReuseFactor terms: the
// server's term ceiling. A standalone server makes that ceiling durable
// before its first accept, a replicated master makes it known to a
// quorum when it is promoted, and no grant raises anything after.

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

// raiseReplica is a master that records each max-term raise and whether
// a hello was admitted while it was asked, failing the first fail raises.
type raiseReplica struct {
	gateReplica
	connect func() (net.Conn, *gidConn)

	mu       sync.Mutex
	fail     int
	raises   []time.Duration
	admitted []bool
}

// admits reports whether a fresh session's hello is answered with an ack.
func (r *raiseReplica) admits() bool {
	nc, _ := r.connect()
	defer nc.Close()
	var e proto.Enc
	if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Str("probe").Bytes()}); err != nil {
		return false
	}
	rep, err := proto.ReadFrame(nc)
	return err == nil && rep.Type == proto.THelloAck
}

func (r *raiseReplica) ReplicateMaxTerm(d time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.raises = append(r.raises, d)
	r.admitted = append(r.admitted, r.admits())
	if r.fail > 0 {
		r.fail--
		return errors.New("no quorum")
	}
	return nil
}

func (r *raiseReplica) log() ([]time.Duration, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.raises...), append([]bool(nil), r.admitted...)
}

// TestPromoteRaisesCeilingOnce: a replicated master replicates its term
// ceiling — core.ReuseFactor terms — to a quorum once per promotion,
// before its gate opens; a raise that fails keeps the gate closed until
// a retry succeeds; and no read, renewal or stretched renewal raises
// anything.
func TestPromoteRaisesCeilingOnce(t *testing.T) {
	clk := clock.NewSim()
	r := &raiseReplica{fail: 1}
	srv, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk, Replica: r})
	r.connect = connect
	node := seedWritable(t, srv, "/f", "x")
	promoted := make(chan struct{})
	go func() {
		srv.Promote(tracing.Context{}, nil, 0)
		close(promoted)
	}()
	waitFor(t, "the failed raise's retry pause", func() bool { return clk.PendingTimers() > 0 })
	if r.admits() {
		t.Fatal("a hello was admitted while the raise was failing")
	}
	clk.Advance(time.Second)
	within(t, "the promotion, its raise retried", func() { <-promoted })
	if !r.admits() {
		t.Fatal("the gate stayed closed after the promotion")
	}

	nc, _ := connect()
	if g := readTwice(t, nc, "h", node); !g.Leased || g.Term != core.ReuseFactor*parkTerm {
		t.Fatalf("the renewal granted %+v, want a stretched lease", g)
	}
	ceiling := core.ReuseFactor * parkTerm
	raises, admitted := r.log()
	if len(raises) != 2 || raises[0] != ceiling || raises[1] != ceiling {
		t.Fatalf("raises %v, want the ceiling %v twice: the failed one and its retry", raises, ceiling)
	}
	if admitted[0] || admitted[1] {
		t.Errorf("hellos admitted during the raises: %v", admitted)
	}
	if got := srv.ReplTermFloor(); got != ceiling {
		t.Errorf("the master's own floor is %v after its raise, want %v", got, ceiling)
	}
}

// TestStretchedRenewalPersistsFirst: on a standalone server the ceiling
// that a stretched renewal runs to — core.ReuseFactor terms — is durable
// before the first grant, no grant rewrites it, and a restart defers
// writes for that long, not one term.
func TestStretchedRenewalPersistsFirst(t *testing.T) {
	clk := clock.NewSim()
	path := filepath.Join(t.TempDir(), "maxterm")
	cfg := server.Config{Term: parkTerm, Clock: clk, MaxTermPath: path}
	ceiling := core.ReuseFactor * parkTerm
	srv1, connect1 := startPipeServer(t, cfg)
	node := seedWritable(t, srv1, "/f", "old")
	// The session is accepted, so Serve has raised the file; nothing is
	// granted yet.
	nc, _ := connect1()
	if got, found, err := server.LoadMaxTerm(path); err != nil || !found || got != ceiling {
		t.Fatalf("max term before any grant = %v, %v, %v; want the ceiling %v", got, found, err, ceiling)
	}
	if g := readTwice(t, nc, "h", node); !g.Leased || g.Term != ceiling {
		t.Fatalf("the renewal granted %+v, want a stretched lease", g)
	}
	if got, found, err := server.LoadMaxTerm(path); err != nil || !found || got != ceiling {
		t.Fatalf("persisted max term = %v, %v, %v; want %v", got, found, err, ceiling)
	}
	srv1.Stop()

	srv2, done := serveAndWrite(t, cfg)
	waitFor(t, "the write to defer", func() bool { return srv2.Metrics().WritesDeferred >= 1 })
	clk.Advance(parkTerm + time.Second)
	select {
	case err := <-done:
		t.Fatalf("the write finished one term after the restart: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(ceiling - parkTerm)
	within(t, "the write, once the recovery window closed", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}
