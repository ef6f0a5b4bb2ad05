// Benchmarks regenerating the paper's evaluation, one per table and
// figure (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured values), plus the two frame-count pins
// of the CI benchmark smoke.
//
// Figure/table benches report their headline quantity via
// b.ReportMetric; run with:
//
//	go test -bench=. -benchmem
package leases_test

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"leases"
	"leases/internal/analytic"
	"leases/internal/baseline"
	"leases/internal/core"
	"leases/internal/experiments"
	"leases/internal/netsim"
	"leases/internal/proto"
	"leases/internal/tokensim"
	"leases/internal/trace"
	"leases/internal/tracesim"
	"leases/internal/vfs"
)

func lanNet() netsim.Params {
	return netsim.Params{Prop: 500 * time.Microsecond, Proc: 50 * time.Microsecond, Seed: 1}
}

// BenchmarkFigure1ServerLoad regenerates Figure 1's headline point: the
// relative server consistency load of a 10-second term on the V
// workload (paper: ≈0.10 at S=1; the trace curve sits lower still).
func BenchmarkFigure1ServerLoad(b *testing.B) {
	tr := trace.V(trace.VConfig{
		Seed: 1989, Duration: 20 * time.Minute, Clients: 1,
		RegularFiles: 40, InstalledFiles: 20,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	var rel float64
	for i := 0; i < b.N; i++ {
		zero := tracesim.Run(tracesim.Config{Trace: tr, Term: 0, Net: lanNet()})
		ten := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet(), BatchExtension: true})
		rel = ten.ConsistencyLoad / zero.ConsistencyLoad
	}
	b.ReportMetric(rel, "relload@10s")
	b.ReportMetric(analytic.VParams().RelativeLoad(10*time.Second), "analytic@10s")
}

// BenchmarkFigure2Delay regenerates Figure 2: added delay at 10 seconds
// on the LAN parameters (curves indistinguishable across S).
func BenchmarkFigure2Delay(b *testing.B) {
	var d1, d40 time.Duration
	for i := 0; i < b.N; i++ {
		p := analytic.VParams()
		d1 = p.AddedDelay(10 * time.Second)
		p.S = 40
		d40 = p.AddedDelay(10 * time.Second)
	}
	b.ReportMetric(float64(d1)/1e6, "S1-ms@10s")
	b.ReportMetric(float64(d40)/1e6, "S40-ms@10s")
}

// BenchmarkFigure3WANDelay regenerates Figure 3's headline: response
// degradation on a 100 ms round-trip network (paper: 10.1% at a 10 s
// term, 3.6% at 30 s).
func BenchmarkFigure3WANDelay(b *testing.B) {
	var r10, r30 float64
	for i := 0; i < b.N; i++ {
		p := analytic.VParams()
		p.MProp = 50 * time.Millisecond
		r10 = p.RelativeDelay(10*time.Second) * 100
		r30 = p.RelativeDelay(30*time.Second) * 100
	}
	b.ReportMetric(r10, "pct@10s")
	b.ReportMetric(r30, "pct@30s")
}

// BenchmarkTable2VParameters regenerates Table 2 by measuring the
// synthetic V trace (paper: R = 0.864/s; reconstructed W = 0.04/s).
func BenchmarkTable2VParameters(b *testing.B) {
	var s trace.Stats
	for i := 0; i < b.N; i++ {
		tr := trace.V(trace.VConfig{
			Seed: 1, Duration: 30 * time.Minute, Clients: 1,
			RegularFiles: 40, InstalledFiles: 20,
			ReadRate: 0.864, WriteRate: 0.04,
		})
		s = tr.Measure()
	}
	b.ReportMetric(s.ReadRate, "R/s")
	b.ReportMetric(s.WriteRate, "W/s")
	b.ReportMetric(s.ReadWriteRatio, "R:W")
}

// BenchmarkHeadlineNumbers evaluates every §3.2/§3.3 headline and
// reports the worst relative error against the paper.
func BenchmarkHeadlineNumbers(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, h := range experiments.Headlines() {
			relErr := (h.Measured - h.Paper) / h.Paper
			if relErr < 0 {
				relErr = -relErr
			}
			if relErr > worst {
				worst = relErr
			}
		}
	}
	b.ReportMetric(worst*100, "worst-err-%")
}

// BenchmarkLeaseRecordStorage measures the §2 storage claim: "For a
// client holding about one hundred leases, the total is around one
// kilobyte per client."
func BenchmarkLeaseRecordStorage(b *testing.B) {
	const clients = 64
	const leasesPer = 100
	var perClient float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := core.NewManager(core.FixedTerm(10 * time.Second))
		now := time.Now()
		for c := 0; c < clients; c++ {
			id := core.ClientID(fmt.Sprintf("client-%d", c))
			for l := 0; l < leasesPer; l++ {
				m.Grant(id, vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(l + 2)}, now)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perClient = float64(after.HeapAlloc-before.HeapAlloc) / clients
		runtime.KeepAlive(m)
	}
	b.ReportMetric(perClient, "bytes/client@100leases")
}

// BenchmarkInstalledFiles regenerates the §4 installed-files result:
// the multicast extension cuts consistency load and eliminates
// per-client records.
func BenchmarkInstalledFiles(b *testing.B) {
	tr := trace.V(trace.VConfig{
		Seed: 7, Duration: 15 * time.Minute, Clients: 4,
		RegularFiles: 40, InstalledFiles: 20,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	var ratio, recs float64
	for i := 0; i < b.N; i++ {
		plain := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
		opt := tracesim.Run(tracesim.Config{
			Trace: tr, Term: 10 * time.Second, Net: lanNet(),
			Installed: &tracesim.InstalledConfig{Term: 30 * time.Second, Period: 20 * time.Second},
		})
		ratio = float64(opt.ServerConsistencyMsgs) / float64(plain.ServerConsistencyMsgs)
		recs = float64(opt.MaxLeaseRecords) / float64(plain.MaxLeaseRecords)
	}
	b.ReportMetric(ratio, "load-ratio")
	b.ReportMetric(recs, "record-ratio")
}

// BenchmarkAnticipatoryExtension regenerates the §4 trade-off:
// anticipatory renewal improves read delay at the cost of server load.
func BenchmarkAnticipatoryExtension(b *testing.B) {
	tr := trace.Poisson(trace.PoissonConfig{
		Seed: 21, Duration: 30 * time.Minute, Clients: 1, Files: 1,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	var delayRatio, loadRatio float64
	for i := 0; i < b.N; i++ {
		onDemand := tracesim.Run(tracesim.Config{Trace: tr, Term: 5 * time.Second, Net: lanNet()})
		antic := tracesim.Run(tracesim.Config{Trace: tr, Term: 5 * time.Second, Net: lanNet(), AnticipatoryLead: 2 * time.Second})
		delayRatio = float64(antic.ReadDelay.Mean) / float64(onDemand.ReadDelay.Mean+1)
		loadRatio = float64(antic.ServerConsistencyMsgs) / float64(onDemand.ServerConsistencyMsgs)
	}
	b.ReportMetric(delayRatio, "delay-ratio")
	b.ReportMetric(loadRatio, "load-ratio")
}

// BenchmarkBaselines regenerates the §6 comparison: TTL polling is
// cheap but stale; leases are consistent at similar cost.
func BenchmarkBaselines(b *testing.B) {
	tr := trace.Shared(trace.SharedConfig{
		Seed: 11, Duration: 15 * time.Minute, Clients: 8, Files: 4,
		ReadRate: 0.864, WriteRate: 0.02,
	})
	var leaseStale, pollStale float64
	var loadRatio float64
	for i := 0; i < b.N; i++ {
		lease := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
		poll := baseline.Run(baseline.Config{Trace: tr, Kind: baseline.PollingHints, TTL: 10 * time.Second, Net: lanNet()})
		leaseStale = float64(lease.StaleReads)
		pollStale = float64(poll.StaleReads)
		loadRatio = float64(lease.ServerConsistencyMsgs) / float64(poll.ServerConsistencyMsgs+1)
	}
	b.ReportMetric(leaseStale, "lease-stale")
	b.ReportMetric(pollStale, "poll-stale")
	b.ReportMetric(loadRatio, "load-ratio")
}

// BenchmarkClientCrashWriteDelay regenerates the §5 bound: a crashed
// holder delays a conflicting write by the remaining term, never more.
func BenchmarkClientCrashWriteDelay(b *testing.B) {
	var maxDelay time.Duration
	for i := 0; i < b.N; i++ {
		tr := &trace.Trace{
			Duration: 60 * time.Second, Clients: 2, Files: 1,
			Events: []trace.Event{
				{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
				{At: 3 * time.Second, Client: 1, File: 0, Op: trace.OpWrite},
			},
		}
		res := tracesim.Run(tracesim.Config{
			Trace: tr, Term: 10 * time.Second, Net: lanNet(),
			Faults: []tracesim.Fault{{Kind: tracesim.ClientCrash, At: 2 * time.Second, Client: 0}},
		})
		maxDelay = res.WriteDelay.Max
	}
	b.ReportMetric(maxDelay.Seconds(), "write-delay-s")
}

// BenchmarkServerRecovery regenerates the §2 recovery rule: a restarted
// server delays writes for the persisted maximum term.
func BenchmarkServerRecovery(b *testing.B) {
	var delay time.Duration
	for i := 0; i < b.N; i++ {
		tr := &trace.Trace{
			Duration: 60 * time.Second, Clients: 2, Files: 2,
			Events: []trace.Event{
				{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
				{At: 6 * time.Second, Client: 1, File: 1, Op: trace.OpWrite},
			},
		}
		res := tracesim.Run(tracesim.Config{
			Trace: tr, Term: 10 * time.Second, Net: lanNet(),
			Faults: []tracesim.Fault{
				{Kind: tracesim.ServerCrash, At: 4 * time.Second},
				{Kind: tracesim.ServerRestart, At: 5 * time.Second},
			},
		})
		delay = res.WriteDelay.Max
	}
	b.ReportMetric(delay.Seconds(), "recovery-delay-s")
}

// BenchmarkClockDriftTraffic regenerates the benign §5 clock failure:
// a fast client clock costs extra extension traffic, never consistency.
func BenchmarkClockDriftTraffic(b *testing.B) {
	tr := trace.Poisson(trace.PoissonConfig{
		Seed: 77, Duration: 15 * time.Minute, Clients: 1, Files: 1,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	var trafficRatio, stale float64
	for i := 0; i < b.N; i++ {
		good := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
		fast := tracesim.Run(tracesim.Config{
			Trace: tr, Term: 10 * time.Second, Net: lanNet(),
			ClientClockRate: []float64{2.0},
		})
		trafficRatio = float64(fast.ServerConsistencyMsgs) / float64(good.ServerConsistencyMsgs)
		stale = float64(fast.StaleReads)
	}
	b.ReportMetric(trafficRatio, "traffic-ratio")
	b.ReportMetric(stale, "stale")
}

// BenchmarkScaling regenerates the §3.3 directions: higher read rates
// sharpen the knee; higher RTTs raise the cost of consistency.
func BenchmarkScaling(b *testing.B) {
	var fastR, slowNet float64
	for i := 0; i < b.N; i++ {
		p := analytic.VParams()
		p.R = 16 * 0.864 // a processor 16× faster
		fastR = p.RelativeLoad(10 * time.Second)
		q := analytic.VParams()
		q.MProp = 100 * time.Millisecond
		slowNet = q.RelativeDelay(10*time.Second) * 100
	}
	b.ReportMetric(fastR, "relload@16xR")
	b.ReportMetric(slowNet, "degradation-%@200msRTT")
}

// BenchmarkAdaptivePolicy regenerates the §4/§7 adaptive-terms result:
// model-driven per-file terms beat both extreme fixed terms on a mixed
// workload.
func BenchmarkAdaptivePolicy(b *testing.B) {
	readMostly := trace.Poisson(trace.PoissonConfig{
		Seed: 51, Duration: 20 * time.Minute, Clients: 6, Files: 1,
		ReadRate: 0.864, WriteRate: 0.005,
	})
	writeHot := trace.Poisson(trace.PoissonConfig{
		Seed: 52, Duration: 20 * time.Minute, Clients: 6, Files: 1,
		ReadRate: 0.4, WriteRate: 1.0,
	})
	for i := range writeHot.Events {
		writeHot.Events[i].File = 1
	}
	tr := trace.Merge(readMostly, writeHot)
	tr.Files = 2
	var vsZero, vsLong float64
	for i := 0; i < b.N; i++ {
		adaptive := tracesim.Run(tracesim.Config{Trace: tr, Net: lanNet(), Adaptive: &tracesim.AdaptiveConfig{}})
		zero := tracesim.Run(tracesim.Config{Trace: tr, Term: 0, Net: lanNet()})
		long := tracesim.Run(tracesim.Config{Trace: tr, Term: 30 * time.Second, Net: lanNet()})
		vsZero = float64(adaptive.ServerConsistencyMsgs) / float64(zero.ServerConsistencyMsgs)
		vsLong = float64(adaptive.ServerConsistencyMsgs) / float64(long.ServerConsistencyMsgs)
	}
	b.ReportMetric(vsZero, "load-vs-zero")
	b.ReportMetric(vsLong, "load-vs-30s")
}

// BenchmarkBatchedExtension quantifies the §3.1 batching option: one
// extension request covering every held lease versus per-file requests.
func BenchmarkBatchedExtension(b *testing.B) {
	tr := trace.Bursty(trace.BurstyConfig{
		Seed: 31, Duration: 30 * time.Minute, Clients: 1, Files: 10,
		ReadRate: 0.864, WriteRate: 0.02, WorkingSet: 10,
	})
	var ratio float64
	for i := 0; i < b.N; i++ {
		plain := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
		batched := tracesim.Run(tracesim.Config{Trace: tr, Term: 10 * time.Second, Net: lanNet(), BatchExtension: true})
		ratio = float64(batched.ServerConsistencyMsgs) / float64(plain.ServerConsistencyMsgs)
	}
	b.ReportMetric(ratio, "load-ratio")
}

// BenchmarkUnicastApprovals quantifies the multicast footnote: "Without
// multicast, it would require 2(S−1) messages" per shared write instead
// of S.
func BenchmarkUnicastApprovals(b *testing.B) {
	tr := trace.Shared(trace.SharedConfig{
		Seed: 13, Duration: 15 * time.Minute, Clients: 10, Files: 1,
		ReadRate: 0.864, WriteRate: 0.01,
	})
	var ratio float64
	for i := 0; i < b.N; i++ {
		multi := tracesim.Run(tracesim.Config{Trace: tr, Term: 30 * time.Second, Net: lanNet()})
		uni := tracesim.Run(tracesim.Config{Trace: tr, Term: 30 * time.Second, Net: lanNet(), UnicastApprovals: true})
		ratio = float64(uni.ServerConsistencyMsgs) / float64(multi.ServerConsistencyMsgs)
	}
	b.ReportMetric(ratio, "unicast/multicast")
}

// BenchmarkWriteBackTokens regenerates the §2/§6 token comparison:
// write-back's total-server-message advantage on private write-heavy
// data.
func BenchmarkWriteBackTokens(b *testing.B) {
	tr := trace.Poisson(trace.PoissonConfig{
		Seed: 61, Duration: 20 * time.Minute, Clients: 4, Files: 4,
		ReadRate: 0.4, WriteRate: 1.0,
	})
	for i := range tr.Events {
		tr.Events[i].File = tr.Events[i].Client
	}
	var ratio float64
	var lost int64
	for i := 0; i < b.N; i++ {
		lease := tracesim.Run(tracesim.Config{Trace: tr, Term: 30 * time.Second, Net: lanNet()})
		token := tokensim.Run(tokensim.Config{
			Trace: tr, Term: 30 * time.Second, Net: lanNet(),
			FlushInterval: 10 * time.Second,
		})
		if lease.StaleReads != 0 || token.StaleReads != 0 {
			b.Fatal("inconsistent run")
		}
		ratio = float64(lease.ServerTotalMsgs) / float64(token.ServerTotalMsgs)
		lost = token.LostWrites
	}
	b.ReportMetric(ratio, "writethrough/writeback")
	b.ReportMetric(float64(lost), "lost-writes")
}

// --- the CI benchmark smoke ---
//
// Two frame-count pins over real TCP; with the Pipelined benchmarks of
// bench_pipeline_test.go they are what CI runs. Performance figures come
// from bench/ (leaseperf), not from here.

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
