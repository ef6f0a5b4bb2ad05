package server_test

import (
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/server"
)

// TestWrittenFileStaysOutOfClass (§4.3 drop-on-write): while a write that
// demoted an installed file waits out the coverage horizon, a read past
// the quiet window does not put the file back into the class — the next
// broadcast would extend readers' old copies past the horizon the write
// waits for — and the quiet window counts from the write's apply.
func TestWrittenFileStaysOutOfClass(t *testing.T) {
	const (
		term      = time.Second
		classTerm = 4 * time.Second
		quiet     = time.Second
	)
	clk := clock.NewSim()
	srv, connect := startPipeServer(t, server.Config{Term: term, Clock: clk, Class: server.ClassConfig{
		InstalledDirs: []string{"/"}, InstalledTerm: classTerm, BroadcastEvery: classTerm / 4, QuietAfterWrite: quiet,
	}})
	seedWritable(t, srv, "/f", "v1")
	dial := func(id string) *client.Cache {
		nc, _ := connect()
		c, err := client.NewFromConn(nc, client.Config{ID: id, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	installed := func() bool {
		info, _ := srv.ClassSnapshot()
		for _, m := range info.Members {
			if m.Path == "/f" {
				return true
			}
		}
		return false
	}
	r := dial("reader")
	mustReadAs(t, r, "/f", "v1")
	if !installed() {
		t.Fatal("a read of a file under / left it out of the class")
	}
	clk.Advance(classTerm / 4) // a broadcast: the class is covered until classTerm/4 + classTerm
	waitFor(t, "the broadcast", func() bool { info, _ := srv.ClassSnapshot(); return !info.CoverUntil.IsZero() })

	wc := dial("writer").StartWrite("/f", []byte("v2"))
	waitFor(t, "the write to demote /f", func() bool { return !installed() })
	clk.Advance(quiet + quiet/2)
	mustReadAs(t, dial("late"), "/f", "v1") // served, while the write waits
	if installed() {
		t.Fatal("a read re-installed /f while the write that demoted it waited out the horizon")
	}

	clk.Advance(classTerm) // past the horizon and every per-file lease
	if err := wc.Wait(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(quiet / 2)
	mustReadAs(t, r, "/f", "v2")
	if installed() {
		t.Fatal("/f re-installed inside the quiet window after its write applied")
	}
	clk.Advance(quiet)
	mustReadAs(t, dial("after"), "/f", "v2")
	if !installed() {
		t.Fatal("/f not re-installed by a read past the quiet window")
	}
}
