package server_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/obs"
	"leases/internal/server"
	"leases/internal/vfs"
)

// adminFixture starts an observed server, drives a little traffic
// through it so every admin surface has data, and returns an httptest
// front-end for the admin handler.
func adminFixture(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	o := obs.New(obs.Config{RingSize: 128})
	s, addr := startServer(t, server.Config{Term: 10 * time.Second, Obs: o})
	c := dial(t, addr, "admin-c1", client.Config{})
	if _, err := c.Create("/f", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Write("/f", []byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	waitOps(t, o, "create", "write", "read")
	ts := httptest.NewServer(s.AdminHandler())
	t.Cleanup(ts.Close)
	return s, ts
}

// waitOps waits for a server-side latency sample of each op. The
// histogram measures decode through reply, so an op is recorded just
// after its reply has left, and the client may look first.
func waitOps(t *testing.T, o *obs.Observer, want ...string) {
	t.Helper()
	for _, op := range want {
		waitFor(t, "a server-side "+op+" latency sample", func() bool {
			for _, l := range o.OpLatencies() {
				if l.Op == op && l.Hist.Count > 0 {
					return true
				}
			}
			return false
		})
	}
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String(), resp.Header
}

func TestAdminHealthz(t *testing.T) {
	_, ts := adminFixture(t)
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestAdminMetrics(t *testing.T) {
	_, ts := adminFixture(t)
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"leases_grants_total",
		"leases_lease_records",
		`leases_shard_grants_total{shard="0"}`,
		`leases_events_total{type="grant"}`,
		"leases_op_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The fixture performed a read, so the read histogram must be live.
	if !strings.Contains(body, `leases_op_latency_seconds_count{op="read"}`) {
		t.Errorf("/metrics missing read op histogram:\n%s", body)
	}
}

func TestAdminLeases(t *testing.T) {
	_, ts := adminFixture(t)
	code, body, hdr := get(t, ts.URL+"/leases")
	if code != http.StatusOK {
		t.Fatalf("/leases status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var dump struct {
		Now    time.Time `json:"now"`
		Count  int       `json:"count"`
		Leases []struct {
			Client string    `json:"client"`
			Kind   string    `json:"kind"`
			Node   uint64    `json:"node"`
			Expiry time.Time `json:"expiry"`
		} `json:"leases"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/leases not JSON: %v\n%s", err, body)
	}
	if dump.Count != len(dump.Leases) {
		t.Errorf("count %d != %d leases", dump.Count, len(dump.Leases))
	}
	// The fixture's read left the client holding at least one lease.
	if dump.Count == 0 {
		t.Errorf("no leases in dump after a read under a 10s term")
	}
	for _, l := range dump.Leases {
		if l.Client == "" || (l.Kind != "file" && l.Kind != "dir") {
			t.Errorf("malformed lease record %+v", l)
		}
	}
}

func TestAdminPprof(t *testing.T) {
	_, ts := adminFixture(t)
	code, body, _ := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestAdminUnknownPath(t *testing.T) {
	_, ts := adminFixture(t)
	if code, _, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

// TestMetricsSnapshotWithoutObserver: the admin plane works on an
// uninstrumented server — manager metrics present, event/op sections
// simply empty.
func TestMetricsSnapshotWithoutObserver(t *testing.T) {
	s, addr := startServer(t, server.Config{Term: time.Second})
	c := dial(t, addr, "plain-c1", client.Config{})
	if _, err := c.Create("/g", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := c.Read("/g"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	snap := s.MetricsSnapshot()
	if snap.Manager.Grants == 0 {
		t.Errorf("manager grants not surfaced: %+v", snap.Manager)
	}
	if len(snap.Shards) == 0 {
		t.Errorf("no shard metrics")
	}
	if snap.Events != nil || snap.Ops != nil {
		t.Errorf("events/ops non-nil without an observer")
	}

	ts := httptest.NewServer(s.AdminHandler())
	defer ts.Close()
	if code, body, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "leases_grants_total") {
		t.Fatalf("/metrics without observer = %d", code)
	}
}

// TestObservedProtocolFlow: one deferred-write round trip produces the
// expected event taxonomy — grant, defer, approval request, approval,
// eviction, apply — and server-side op histograms for each RPC used.
func TestObservedProtocolFlow(t *testing.T) {
	o := obs.New(obs.Config{RingSize: 128})
	_, addr := startServer(t, server.Config{Term: 10 * time.Second, Obs: o})
	reader := dial(t, addr, "obs-reader", client.Config{})
	writer := dial(t, addr, "obs-writer", client.Config{})

	if _, err := reader.Create("/shared", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := reader.Read("/shared"); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// The write conflicts with reader's lease: deferred, then approved
	// via callback, then applied.
	if err := writer.Write("/shared", []byte("v2")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	byType := map[string]int64{}
	for _, ec := range o.EventCounts() {
		byType[ec.Type] = ec.N
	}
	for _, want := range []string{"grant", "write-defer", "approve-request", "approve", "eviction", "write-apply"} {
		if byType[want] == 0 {
			t.Errorf("no %q events recorded; counts = %v", want, byType)
		}
	}

	waitOps(t, o, "create", "read", "write")

	// Wait must be populated on the apply event of a deferred write.
	var sawApplyWait bool
	for _, ev := range o.Events(0) {
		if ev.Type == obs.EvWriteApply && ev.Wait > 0 {
			sawApplyWait = true
		}
	}
	if !sawApplyWait {
		t.Errorf("write-apply event missing wait duration")
	}
}

// BenchmarkObservedUncachedRead quantifies the enabled-instrumentation
// tax on the heaviest-traffic path (zero-term read: every request hits
// the server): the obs=off case is the baseline, obs=on the same
// requests with an observer attached.
func BenchmarkObservedUncachedRead(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "obs=off"
		cfg := server.Config{Term: 0}
		if observed {
			name = "obs=on"
			cfg.Obs = obs.New(obs.Config{RingSize: 4096})
		}
		b.Run(name, func(b *testing.B) {
			s := server.New(cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go s.Serve(ln)
			defer s.Stop()
			c, err := client.Dial(ln.Addr().String(), client.Config{ID: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Create("/bench", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Read("/bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
