// Two frame-count pins over real TCP; with the Pipelined benchmarks of
// bench_pipeline_test.go they are what CI's benchmark smoke runs:
//
//	go test -race -run '^$' -bench 'Pipelined|TCPNestedWarmOpen|TCPColdReadOneRTT' -benchtime=100x .
//
// The paper's figures and tables are regenerated by cmd/leasebench
// (checked against leasebench_output.txt); performance figures come
// from bench/ (leaseperf), not from here.
package leases_test

import (
	"net"
	"testing"
	"time"

	"leases"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// BenchmarkTCPNestedWarmOpen measures a repeated open of a depth-3 path
// whose every directory is leased: resolved from the cached edges, no
// frame leaves the client.
func BenchmarkTCPNestedWarmOpen(b *testing.B) {
	c := benchClient(b, time.Hour)
	if _, err := c.Lookup(benchNested); err != nil {
		b.Fatal(err)
	}
	sent := benchRequests(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup(benchNested); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := benchRequests(c) - sent; n != 0 {
		b.Fatalf("%d warm opens sent %d requests, want none", b.N, n)
	}
}

// BenchmarkTCPColdReadOneRTT measures a read of a depth-3 path with
// nothing cached (the zero-term regime): one path-addressed TRead, the
// lookup folded into it.
func BenchmarkTCPColdReadOneRTT(b *testing.B) {
	c := benchClient(b, 0)
	sent := benchRequests(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(benchNested); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := benchRequests(c) - sent; n != uint64(b.N) {
		b.Fatalf("%d cold reads sent %d requests, want one each", b.N, n)
	}
}

// benchNested is the depth-3 file benchClient seeds beside /bench.
const benchNested = "/a/b/c"

// benchRequests counts the lookup and read requests c has sent.
func benchRequests(c *leases.Client) uint64 {
	ws := c.WireStats()
	return ws.Frames(proto.TLookup, "out") + ws.Frames(proto.TRead, "out")
}

func benchClient(b *testing.B, term time.Duration) *leases.Client {
	b.Helper()
	srv := leases.NewServer(leases.ServerConfig{Term: term})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(srv.Stop)
	st := srv.Store()
	a, err := st.Create("/bench", "root", vfs.DefaultPerm|vfs.WorldWrite)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.WriteFile(a.ID, []byte("contents")); err != nil {
		b.Fatal(err)
	}
	for _, dir := range []string{"/a", "/a/b"} {
		if _, err := st.Mkdir(dir, "root", vfs.DefaultPerm); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.CreateWith(benchNested, "root", vfs.DefaultPerm, []byte("contents")); err != nil {
		b.Fatal(err)
	}
	c, err := leases.Dial(ln.Addr().String(), leases.ClientConfig{ID: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}
