// Smoke test for the §4.3 economy over real TCP: with the installed-
// files class on, keeping a portfolio of N files leased at M clients
// costs O(M) extension messages per broadcast period — independent of
// N — where per-file renewal would cost O(N×M). The test dials real
// clients against a real listener, opens a measurement window after
// setup traffic drains, and reads the cost off the per-message-type
// wire counters, asserting it lands within 2× of the analytic
// prediction (clients × window/BroadcastEvery, plus a snapshot fetch
// per client) and far below the per-file floor.
//
// The simulated counterpart is leasebench -exp installed (row O1);
// EXPERIMENTS.md ("O1 over the wire") records the wire measurements.
package leases_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"leases"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

func TestInstalledExtensionTrafficIsOClients(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP timing test")
	}
	const (
		nClients = 8
		nFiles   = 64
		period   = 100 * time.Millisecond
	)
	srv := leases.NewServer(leases.ServerConfig{
		Term: 5 * time.Second,
		Class: server.ClassConfig{
			InstalledDirs:   []string{"/pf"},
			InstalledTerm:   2 * time.Second,
			BroadcastEvery:  period,
			QuietAfterWrite: time.Millisecond,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Stop()
	addr := ln.Addr().String()

	prep, err := leases.Dial(addr, leases.ClientConfig{ID: "prep"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Mkdir("/pf", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("/pf/%d", i)
		if _, err := prep.Create(p, vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
		if err := prep.Write(p, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	prep.Close()
	// Let the server's post-write promotion holdoff pass, so the reads
	// below actually install the files.
	time.Sleep(20 * time.Millisecond)

	clients := make([]*leases.Client, nClients)
	for i := range clients {
		c, err := leases.Dial(addr, leases.ClientConfig{
			ID: fmt.Sprintf("m%d", i), AutoExtend: period, Seed: int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for f := 0; f < nFiles; f++ {
			if _, err := c.Read(fmt.Sprintf("/pf/%d", f)); err != nil {
				t.Fatal(err)
			}
		}
		clients[i] = c
	}
	// Setup drain: promotions happen on the reads above; the first
	// broadcast's generation bump makes every client fetch the class
	// snapshot. Give all of that time to finish before measuring.
	time.Sleep(500 * time.Millisecond)

	if _, members, _ := clients[0].InstalledClass(); members < nFiles {
		t.Fatalf("only %d class members after setup, want >= %d", members, nFiles)
	}

	// The extension cost of holding the portfolio: broadcast pushes,
	// snapshot refetches, and any explicit extend requests the renewal
	// loop still issues.
	probes := []struct {
		typ proto.MsgType
		dir string
	}{
		{proto.TBroadcastExt, "in"},
		{proto.TInstalled, "out"},
		{proto.TInstalledRep, "in"},
		{proto.TExtend, "out"},
		{proto.TExtendRep, "in"},
	}
	base := make([]uint64, nClients*len(probes))
	for i, c := range clients {
		for j, p := range probes {
			base[i*len(probes)+j] = c.WireStats().Frames(p.typ, p.dir)
		}
	}
	start := time.Now()
	time.Sleep(1200 * time.Millisecond)
	elapsed := time.Since(start)

	var total uint64
	for i, c := range clients {
		for j, p := range probes {
			n := c.WireStats().Frames(p.typ, p.dir)
			total += n - base[i*len(probes)+j]
		}
	}

	// Analytic: one O(1) broadcast per client per period, plus at most
	// one snapshot req/rep pair per client (a promotion racing the
	// window's open can bump the generation once more).
	perClient := float64(elapsed) / float64(period)
	analytic := nClients * (int(perClient) + 2)
	perFileFloor := nClients * nFiles // one round of per-file renewal
	t.Logf("extension messages over %v: %d (analytic %d, per-file floor %d/round)",
		elapsed.Truncate(time.Millisecond), total, analytic, perFileFloor)
	if total == 0 {
		t.Fatal("no extension traffic at all — broadcasts not flowing")
	}
	if int(total) > 2*analytic {
		t.Fatalf("extension traffic %d exceeds 2x the analytic O(clients) prediction %d", total, analytic)
	}
	if int(total) >= perFileFloor {
		t.Fatalf("extension traffic %d is not below one per-file renewal round (%d) — the class buys nothing", total, perFileFloor)
	}
}
