package server_test

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// The §2 restart rule on the TCP server, over in-memory pipes on a
// simulated clock: a recovery window of four terms costs no wall time.

// seedWritable creates a world-writable file and returns its node.
func seedWritable(t *testing.T, srv *server.Server, path, content string) vfs.NodeID {
	t.Helper()
	a, err := srv.Store().Create(path, "root", vfs.DefaultPerm|vfs.WorldWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Store().WriteFile(a.ID, []byte(content)); err != nil {
		t.Fatal(err)
	}
	return a.ID
}

// startWrite sends a write of data to node on a raw session and returns
// what its reply comes to: nil for a TWriteRep.
func startWrite(t *testing.T, nc net.Conn, node vfs.NodeID, data string) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	if _, err := nc.Write(frame(t, proto.TWrite, 2, func(e *proto.Enc) { e.U64(uint64(node)).Blob([]byte(data)).EncodeData(nil) })); err != nil {
		t.Fatal(err)
	}
	go func() {
		rep, err := proto.ReadFrame(nc)
		if err == nil && rep.Type != proto.TWriteRep {
			err = errors.New("write answered " + rep.Type.String())
		}
		done <- err
	}()
	return done
}

// serveAndWrite boots cfg's server — on a restart, its next incarnation —
// with /f seeded, and starts a write to /f on it.
func serveAndWrite(t *testing.T, cfg server.Config) (*server.Server, <-chan error) {
	t.Helper()
	srv, connect := startPipeServer(t, cfg)
	node := seedWritable(t, srv, "/f", "v0")
	w, _ := connect()
	hello(t, w, "writer")
	return srv, startWrite(t, w, node, "v1")
}

// TestRecoveryWindowFromDurableMaxTermOverTCP is experiment FT2 on the
// server that ships: a client takes a one-term lease, the server
// crash-stops, and the restarted incarnation — given only the durable
// max-term file, no operator window — defers a conflicting write for
// exactly the term ceiling (core.ReuseFactor terms) that Serve made
// durable before its first accept, though the first incarnation granted
// only one term: the file records what the configuration can grant,
// not what it did.
func TestRecoveryWindowFromDurableMaxTermOverTCP(t *testing.T) {
	clk := clock.NewSim()
	path := filepath.Join(t.TempDir(), "maxterm")
	cfg := server.Config{Term: parkTerm, Clock: clk, MaxTermPath: path}

	srv1, connect1 := startPipeServer(t, cfg)
	node := seedWritable(t, srv1, "/f", "v0")
	holder, _ := connect1()
	hello(t, holder, "holder")
	if _, err := holder.Write(frame(t, proto.TRead, 2, func(e *proto.Enc) { e.U64(uint64(node)).Str("").EncodeData(nil) })); err != nil {
		t.Fatal(err)
	}
	if rep, err := proto.ReadFrame(holder); err != nil || rep.Type != proto.TReadRep {
		t.Fatalf("holder's read: %v %v", rep.Type, err)
	}
	if got := srv1.MaxTermGranted(); got != parkTerm {
		t.Fatalf("the first incarnation granted up to %v, want one term (%v)", got, parkTerm)
	}
	srv1.Stop()
	ceiling := core.ReuseFactor * parkTerm
	if got, found, err := server.LoadMaxTerm(path); err != nil || !found || got != ceiling {
		t.Fatalf("persisted max term = %v, %v, %v; want the ceiling %v", got, found, err, ceiling)
	}

	srv2, done := serveAndWrite(t, cfg)
	waitFor(t, "the write to defer", func() bool { return srv2.Metrics().WritesDeferred >= 1 })
	// The window, like a lease, holds through its last instant.
	clk.Advance(ceiling)
	select {
	case err := <-done:
		t.Fatalf("the write finished %v into a %v recovery window: %v", ceiling, ceiling, err)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(time.Nanosecond)
	within(t, "the write, once the recovery window closed", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}

// TestFreshServerWithMaxTermFileDoesNotDelay is the control: a first
// boot finds no max-term file and must not observe any recovery window.
func TestFreshServerWithMaxTermFileDoesNotDelay(t *testing.T) {
	_, done := serveAndWrite(t, server.Config{Term: parkTerm, Clock: clock.NewSim(), MaxTermPath: filepath.Join(t.TempDir(), "maxterm")})
	within(t, "a write on a first boot, the clock standing still", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}

// TestExplicitRecoveryWindowOverridesPersisted: an operator-supplied
// RecoveryWindow wins over the durable file's value.
func TestExplicitRecoveryWindowOverridesPersisted(t *testing.T) {
	clk := clock.NewSim()
	path := filepath.Join(t.TempDir(), "maxterm")
	srv1, connect := startPipeServer(t, server.Config{Term: parkTerm, Clock: clk, MaxTermPath: path})
	nc, _ := connect() // Serve has written the file once it accepts
	nc.Close()
	srv1.Stop()

	const window = 300 * time.Millisecond
	srv2, done := serveAndWrite(t, server.Config{Term: parkTerm, Clock: clk, MaxTermPath: path, RecoveryWindow: window})
	waitFor(t, "the write to defer", func() bool { return srv2.Metrics().WritesDeferred >= 1 })
	clk.Advance(window + time.Nanosecond)
	within(t, "the write, once the explicit window closed", func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}

// TestBootIDChangesAcrossRestart: the hello ack carries the server
// incarnation, which is how a reconnecting client tells a restart from
// a transient fault.
func TestBootIDChangesAcrossRestart(t *testing.T) {
	bootOf := func(srv *server.Server, connect func() (net.Conn, *gidConn)) uint64 {
		nc, _ := connect()
		defer nc.Close()
		var e proto.Enc
		if err := proto.WriteFrame(nc, proto.Frame{Type: proto.THello, ReqID: 1, Payload: e.Str("c").Bytes()}); err != nil {
			t.Fatal(err)
		}
		rep, err := proto.ReadFrame(nc)
		if err != nil || rep.Type != proto.THelloAck {
			t.Fatalf("hello: %v %v", rep.Type, err)
		}
		boot := proto.NewDec(rep.Payload).U64()
		if boot == 0 || boot != srv.BootID() {
			t.Fatalf("the ack carries boot %d, the server reports %d", boot, srv.BootID())
		}
		return boot
	}
	cfg := server.Config{Term: parkTerm, Clock: clock.NewSim(), MaxTermPath: filepath.Join(t.TempDir(), "maxterm")}
	srv1, connect1 := startPipeServer(t, cfg)
	b1 := bootOf(srv1, connect1)
	srv1.Stop()
	srv2, connect2 := startPipeServer(t, cfg)
	if b2 := bootOf(srv2, connect2); b2 == b1 {
		t.Fatalf("restart not distinguishable: boot %d twice", b1)
	}
}
