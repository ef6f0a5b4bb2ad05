package server_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/cluster"
	"leases/internal/obs/tracing"
	"leases/internal/replica"
	"leases/internal/server"
	"leases/internal/vfs"
)

// traceCluster is a minimal 3-replica deployment over real TCP — the
// cmd/leasesrv wiring without faultnet — with one shared tracer so a
// distributed trace assembles in a single segment the test can walk.
type traceCluster struct {
	tracer   *tracing.Tracer
	nodes    []*replica.Node
	srvs     []*server.Server
	cliAddrs []string
}

func startTraceCluster(t *testing.T, n int) *traceCluster {
	t.Helper()
	tc := &traceCluster{
		tracer:   tracing.New(tracing.Config{Node: "cluster", SampleRate: 1, Completed: 256}),
		nodes:    make([]*replica.Node, n),
		srvs:     make([]*server.Server, n),
		cliAddrs: make([]string, n),
	}
	dir := t.TempDir()
	peers := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = ln.Addr().String()
		ln.Close()
	}
	for i := 0; i < n; i++ {
		i := i
		nd, srv, err := cluster.New(replica.NodeConfig{
			ID: i, Peers: peers,
			Term: 2 * time.Second, Allowance: 100 * time.Millisecond,
			Seed: int64(i) + 1, Tracer: tc.tracer,
		}, server.Config{
			Term:        10 * time.Second,
			MaxTermPath: filepath.Join(dir, fmt.Sprintf("maxterm-%d", i)),
			Tracer:      tc.tracer,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		tc.nodes[i], tc.srvs[i], tc.cliAddrs[i] = nd, srv, ln.Addr().String()
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			nd.Stop()
		}
		for _, s := range tc.srvs {
			s.Stop()
		}
	})
	return tc
}

func (tc *traceCluster) waitMaster(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, nd := range tc.nodes {
			if !nd.IsMaster() {
				continue
			}
			// The serving gate stays shut until Promote completes;
			// probe it with a throwaway session.
			if c, err := client.Dial(tc.cliAddrs[i], client.Config{ID: "tr-probe"}); err == nil {
				c.Close()
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no replica promoted to serving master")
	return -1
}

// TestTraceFollowsWriteAcrossCluster is the end-to-end tracing
// acceptance test: one TraceID rooted on the writing client — carried
// in the wire header over real TCP — must show up in the master's
// tracer with a child span for the approval push to the conflicting
// reader and one repl.ship child per peer replica, and the /traces
// admin endpoint must surface the same trace.
func TestTraceFollowsWriteAcrossCluster(t *testing.T) {
	tc := startTraceCluster(t, 3)
	master := tc.waitMaster(t)
	addr := tc.cliAddrs[master]

	reader := dial(t, addr, "tr-reader", client.Config{Tracer: tc.tracer})
	writer := dial(t, addr, "tr-writer", client.Config{Tracer: tc.tracer})

	if _, err := reader.Create("/f", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := reader.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Conflicts with reader's lease: defer → approval push → approve →
	// replicate to both peers → apply → reply.
	if err := writer.Write("/f", []byte("traced")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// The segment completes when its last span ends, and the server's
	// spans end after the reply has left: the dispatch span just behind
	// it, the ship to the peer the quorum did not wait for whenever its
	// ack lands.
	var wr *tracing.Trace
	for deadline := time.Now().Add(5 * time.Second); wr == nil && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, trc := range tc.tracer.Recent(0) {
			if trc.Op == "client.write" {
				wr = trc
			}
		}
	}
	if wr == nil {
		t.Fatalf("no completed client.write trace; have %d traces", len(tc.tracer.Recent(0)))
	}
	names := map[string]int{}
	for _, sp := range wr.Spans {
		names[sp.Name]++
		if sp.Trace != wr.ID {
			t.Errorf("span %s carries trace %v, segment is %v", sp.Name, sp.Trace, wr.ID)
		}
		if sp.End.IsZero() {
			t.Errorf("span %s never ended", sp.Name)
		}
	}
	for name, want := range map[string]int{
		"client.write": 1, "server.write": 1, "write.defer": 1,
		"approve.push": 1, "write.apply": 1, "repl.ship": 2,
	} {
		if names[name] != want {
			t.Errorf("span %q count = %d, want %d; spans = %v", name, names[name], want, names)
		}
	}
	if wr.Abandoned != 0 {
		t.Errorf("write trace has %d abandoned spans", wr.Abandoned)
	}

	// The election that promoted the master is its own complete trace.
	var sawElection bool
	for _, trc := range tc.tracer.Recent(0) {
		if trc.Op != "election" {
			continue
		}
		var prep, sync, prom bool
		for _, sp := range trc.Spans {
			switch sp.Name {
			case "elect.prepare":
				prep = true
			case "failover.sync":
				sync = true
			case "failover.promote":
				prom = true
			}
		}
		if prep && sync && prom {
			sawElection = true
		}
	}
	if !sawElection {
		t.Errorf("no complete election trace recorded")
	}

	// The admin plane surfaces the same trace by ID.
	ts := httptest.NewServer(tc.srvs[master].AdminHandler())
	defer ts.Close()
	id, _ := wr.ID.MarshalJSON()
	code, body, _ := get(t, ts.URL+"/traces")
	if code != 200 || !strings.Contains(body, string(id)) {
		t.Errorf("/traces = %d, missing trace %s", code, id)
	}
	var dump struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			Op    string `json:"op"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if !dump.Enabled {
		t.Errorf("/traces reports tracing disabled")
	}
	code, body, _ = get(t, ts.URL+"/traces/slow?n=4")
	if code != 200 || !strings.Contains(body, "client.write") {
		t.Errorf("/traces/slow = %d, missing client.write:\n%s", code, body)
	}
}
