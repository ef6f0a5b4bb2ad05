package server_test

import (
	"path/filepath"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/server"
	"leases/internal/vfs"
)

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

// TestRecoveryWindowFromDurableMaxTermOverTCP is experiment FT2 run
// against the real deployment instead of the simulator: a client takes
// a lease over TCP, the server crash-stops, and the restarted
// incarnation — given only the durable max-term file, no operator
// -recovery flag — must defer a conflicting write until the full
// recovery window has elapsed, because the crash forgot who holds
// leases and the window is the only safe answer (§2).
func TestRecoveryWindowFromDurableMaxTermOverTCP(t *testing.T) {
	const term = 1200 * time.Millisecond
	path := filepath.Join(t.TempDir(), "maxterm")

	srv1, addr1 := startServer(t, server.Config{Term: term, MaxTermPath: path})
	seedWritable(t, srv1, "/ft2", "v0")

	holder := dial(t, addr1, "holder", client.Config{})
	if _, err := holder.Read("/ft2"); err != nil {
		t.Fatalf("holder read: %v", err)
	}
	// Crash: the client vanishes without releasing, then the server
	// stops with the lease outstanding. Only the max-term file survives.
	holder.Abandon()
	srv1.Stop()
	if got, found, err := server.LoadMaxTerm(path); err != nil || !found || got != term {
		t.Fatalf("persisted max term = %v, %v, %v; want %v", got, found, err, term)
	}

	restartAt := time.Now()
	srv2, addr2 := startServer(t, server.Config{Term: term, MaxTermPath: path, WriteTimeout: 30 * time.Second})
	seedWritable(t, srv2, "/ft2", "v0")

	writer := dial(t, addr2, "writer", client.Config{})
	if err := writer.Write("/ft2", []byte("v1")); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	windowEnd := restartAt.Add(term)
	if done := time.Now(); done.Before(windowEnd.Add(-100 * time.Millisecond)) {
		t.Fatalf("write applied %v before the recovery window elapsed", windowEnd.Sub(done))
	}
	_ = srv2
}

// TestFreshServerWithMaxTermFileDoesNotDelay is the control: a first
// boot finds no max-term file and must not observe any recovery window.
func TestFreshServerWithMaxTermFileDoesNotDelay(t *testing.T) {
	const term = 2 * time.Second
	srv, addr := startServer(t, server.Config{Term: term, MaxTermPath: filepath.Join(t.TempDir(), "maxterm")})
	seedWritable(t, srv, "/f", "v0")

	writer := dial(t, addr, "writer", client.Config{})
	start := time.Now()
	if err := writer.Write("/f", []byte("v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if d := time.Since(start); d > term/2 {
		t.Fatalf("fresh boot deferred a write %v; no recovery window applies", d)
	}
}

// TestExplicitRecoveryWindowOverridesPersisted: an operator-supplied
// RecoveryWindow wins over the durable file's value.
func TestExplicitRecoveryWindowOverridesPersisted(t *testing.T) {
	const term = 5 * time.Second
	path := filepath.Join(t.TempDir(), "maxterm")

	srv1, addr1 := startServer(t, server.Config{Term: term, MaxTermPath: path})
	seedWritable(t, srv1, "/f", "v0")
	c := dial(t, addr1, "holder", client.Config{})
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	srv1.Stop()

	// Restart with a much shorter explicit window: the write clears in
	// ~300ms, far below the 5s the persisted term would impose.
	const window = 300 * time.Millisecond
	restartAt := time.Now()
	srv2, addr2 := startServer(t, server.Config{
		Term: term, MaxTermPath: path, RecoveryWindow: window, WriteTimeout: 30 * time.Second,
	})
	seedWritable(t, srv2, "/f", "v0")
	writer := dial(t, addr2, "writer", client.Config{})
	if err := writer.Write("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(restartAt); d > 2*time.Second {
		t.Fatalf("explicit %v window did not override persisted %v term (write took %v)", window, term, d)
	}
}

// TestBootIDChangesAcrossRestart: the hello ack carries the server
// incarnation, which is how a reconnecting client tells a restart from
// a transient fault.
func TestBootIDChangesAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "maxterm")
	srv1, addr1 := startServer(t, server.Config{Term: time.Second, MaxTermPath: path})
	if srv1.BootID() == 0 {
		t.Fatal("boot ID is zero")
	}
	c1 := dial(t, addr1, "c", client.Config{})
	if c1.ServerBoot() != srv1.BootID() {
		t.Fatalf("client saw boot %d, server reports %d", c1.ServerBoot(), srv1.BootID())
	}
	c1.Abandon()
	srv1.Stop()

	srv2, addr2 := startServer(t, server.Config{Term: time.Second, MaxTermPath: path})
	c2 := dial(t, addr2, "c", client.Config{})
	if c2.ServerBoot() == 0 || c2.ServerBoot() == c1.ServerBoot() {
		t.Fatalf("restart not distinguishable: boots %d then %d", c1.ServerBoot(), c2.ServerBoot())
	}
	_ = srv2
}
