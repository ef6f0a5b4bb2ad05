// Pipelining benchmarks for the transport (DESIGN.md §5.1-5.2; CI runs
// them at 100 iterations under -race as a smoke, and performance figures
// come from bench/): every frame goes through a per-connection write
// coalescer, the client's futures API (StartRead / StartWrite /
// StartExtendAll) keeps a window of requests in flight, and the server
// serves each request on the goroutine that read it, holding the flush
// while more requests are already buffered. Depth 1 is the blocking
// regime — one frame per syscall, one round trip per op, no goroutine
// started on the server; at depth ≥ 8 a burst that arrives in one read
// is answered by one write (frames/flush well above 1) and the round
// trip amortizes across the window.
//
// Run with:
//
//	go test -bench=Pipelined -benchmem -cpu 1
package leases_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/faultnet"
	"leases/internal/obs"
	"leases/internal/server"
	"leases/internal/vfs"
)

// countingConn counts Write syscalls so the benchmark can report how
// many the coalescer actually issued per operation.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkTCPPipelinedExtend drives one client's lease-extension
// stream at several pipeline depths against a live TCP server. Beyond
// ns/op, it reports writes/op — client Write syscalls per operation,
// which coalescing drives below 1 — and frames/flush, the server-side
// reply batch size from the observer's flush histogram.
func BenchmarkTCPPipelinedExtend(b *testing.B) {
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			o := obs.New(obs.Config{RingSize: 1 << 10})
			srv := server.New(server.Config{Term: time.Hour, Obs: o})
			st := srv.Store()
			a, err := st.Create("/bench", "root", vfs.DefaultPerm|vfs.WorldWrite)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.WriteFile(a.ID, []byte("contents")); err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			b.Cleanup(srv.Stop)
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			cc := &countingConn{Conn: nc}
			c, err := client.NewFromConn(cc, client.Config{ID: "pipe"})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			if _, err := c.Read("/bench"); err != nil { // take the lease to extend
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			window := make([]*client.ExtendCall, depth)
			for i := 0; i < b.N; i++ {
				slot := i % depth
				if window[slot] != nil {
					if err := window[slot].Wait(); err != nil {
						b.Fatal(err)
					}
				}
				window[slot] = c.StartExtendAll()
			}
			for _, x := range window {
				if x != nil {
					if err := x.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "writes/op")
			if ff, _ := o.FlushStats(); ff.Count > 0 {
				b.ReportMetric(ff.Sum/float64(ff.Count), "frames/flush")
			}
		})
	}
}

// BenchmarkTCPPipelinedExtendLatency is the same extension stream over
// a link with injected reply-delivery latency (faultnet.Wrap on the
// client's read side — loopback has none, so the plain benchmark
// measures only CPU overlap). This is what pipelining is for: at
// depth 1 every operation waits out the full delivery delay alone,
// while at depth ≥ 8 the requests go out back to back and the replies
// accumulate behind the sleeping reader, draining many per chunk — the
// delay is paid once per window, not once per op. (The sleep is on the
// read side because a write-side sleep would model sender occupancy,
// which a real kernel socket buffer absorbs.)
func BenchmarkTCPPipelinedExtendLatency(b *testing.B) {
	const latency = time.Millisecond
	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			srv := server.New(server.Config{Term: time.Hour})
			st := srv.Store()
			a, err := st.Create("/bench", "root", vfs.DefaultPerm|vfs.WorldWrite)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := st.WriteFile(a.ID, []byte("contents")); err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			b.Cleanup(srv.Stop)
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			cc := &countingConn{Conn: nc}
			slow := faultnet.Wrap(cc, 1,
				faultnet.LinkConfig{Latency: latency}, // read side: reply delivery delay
				faultnet.LinkConfig{}, nil)
			c, err := client.NewFromConn(slow, client.Config{ID: "pipe-slow"})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			if _, err := c.Read("/bench"); err != nil { // take the lease to extend
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			window := make([]*client.ExtendCall, depth)
			for i := 0; i < b.N; i++ {
				slot := i % depth
				if window[slot] != nil {
					if err := window[slot].Wait(); err != nil {
						b.Fatal(err)
					}
				}
				window[slot] = c.StartExtendAll()
			}
			for _, x := range window {
				if x != nil {
					if err := x.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cc.writes.Load())/float64(b.N), "writes/op")
		})
	}
}

// BenchmarkTCPPipelinedWrite is the data path: every write-through
// costs a server round trip (writes are never served from cache), so
// pipelining depth directly amortizes it. The single writer holds the
// only leases, so no write ever defers; lookups stay cached under the
// long term, keeping StartWrite itself non-blocking.
func BenchmarkTCPPipelinedWrite(b *testing.B) {
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			srv := server.New(server.Config{Term: time.Hour})
			st := srv.Store()
			const files = 8
			for i := 0; i < files; i++ {
				a, err := st.Create(fmt.Sprintf("/f%d", i), "root", vfs.DefaultPerm|vfs.WorldWrite)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := st.WriteFile(a.ID, []byte("seed")); err != nil {
					b.Fatal(err)
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			b.Cleanup(srv.Stop)
			c, err := client.Dial(ln.Addr().String(), client.Config{ID: "pipe-write"})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("/f%d", i)
				if _, err := c.Read(paths[i]); err != nil { // warm lookups and leases
					b.Fatal(err)
				}
			}
			payload := []byte("pipelined write contents")

			b.ReportAllocs()
			b.ResetTimer()
			window := make([]*client.WriteCall, depth)
			for i := 0; i < b.N; i++ {
				slot := i % depth
				if window[slot] != nil {
					if err := window[slot].Wait(); err != nil {
						b.Fatal(err)
					}
				}
				window[slot] = c.StartWrite(paths[i%files], payload)
			}
			for _, w := range window {
				if w != nil {
					if err := w.Wait(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
