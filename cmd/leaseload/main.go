// Command leaseload replays a workload trace against a live lease file
// server over real TCP — the deployment-side counterpart of the
// trace-driven simulator. Use it to verify that a running server shows
// the simulator's behaviour: hit rates rising with the term, writes
// deferred behind leases, and no errors.
//
// Usage:
//
//	leasesrv -addr 127.0.0.1:7025 -term 10s -empty &
//	leaseload -addr 127.0.0.1:7025 -gen v -dur 10m -speedup 60
//	leaseload -addr 127.0.0.1:7025 -in v.trace -speedup 120
//
// With -mode it instead runs the portfolio renewal workload: -clients
// clients each take leases on the same -files files under /pf and keep
// them renewed for -dur of wall time, and the tool reports the
// extension traffic per message type — the §4.3 economy measured off
// the wire. The three modes renew the same portfolio three ways:
//
//	perfile   one ExtendData request per file per -renew-every
//	          (O(files × clients) extension messages)
//	batched   one ExtendAll request per client per -renew-every
//	          (§3.1 batch renewal: O(clients) frames, O(files) payload)
//	installed the server's periodic broadcast covers the whole class
//	          (O(clients) frames total; run leasesrv with
//	          -installed-dirs /pf and a -quiet-after-write under 1s,
//	          so the seeding writes don't hold the files out of the
//	          class for the whole run)
//
//	leasesrv -addr 127.0.0.1:7025 -term 10s -installed-dirs /pf \
//	         -quiet-after-write 500ms -empty &
//	leaseload -addr 127.0.0.1:7025 -mode installed -clients 8 -files 64 -dur 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"leases/internal/client"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/replay"
	"leases/internal/shard"
	"leases/internal/trace"
	"leases/internal/vfs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7025", "server address")
	gen := flag.String("gen", "", "generate a workload: v|poisson|bursty|shared (empty: load -in)")
	in := flag.String("in", "", "trace file to replay")
	dur := flag.Duration("dur", 10*time.Minute, "generated trace duration")
	clients := flag.Int("clients", 3, "generated trace clients")
	files := flag.Int("files", 8, "generated trace files")
	readRate := flag.Float64("r", 0.864, "per-client read rate /s")
	writeRate := flag.Float64("w", 0.04, "per-client write rate /s")
	seed := flag.Int64("seed", 1, "random seed")
	speedup := flag.Float64("speedup", 60, "time compression factor")
	maxOps := flag.Int("max-ops", 0, "cap on replayed events (0 = all)")
	skipPrepare := flag.Bool("skip-prepare", false, "assume /f<N> files already exist")
	depth := flag.Int("depth", 1, "per-client pipeline depth (ops in flight; 1 = blocking)")
	open := flag.Bool("open", false, "open-loop: issue as fast as the pipeline window allows, ignoring trace timing")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling probability for client-rooted traces (0 disables); sampled contexts ride the wire, so the server's /traces correlates")
	mode := flag.String("mode", "", "portfolio renewal workload instead of trace replay: perfile|batched|installed (see the command doc)")
	renewEvery := flag.Duration("renew-every", time.Second, "portfolio renewal period (perfile/batched request cadence; installed arms the client loop at this period and lets broadcasts do the work)")
	ringSpec := flag.String("ring", "", "route a sharded workload over this ring spec instead of -addr: per-client Routers issue reads, writes and renames (cross-shard included) for -dur, honoring -clients/-files/-seed")
	flag.Parse()

	if *ringSpec != "" {
		runRing(*ringSpec, *clients, *files, *dur, *seed)
		return
	}

	if *mode != "" {
		runPortfolio(*addr, *mode, *clients, *files, *dur, *renewEvery)
		return
	}

	var tr *trace.Trace
	switch *gen {
	case "v":
		tr = trace.V(trace.VConfig{
			Seed: *seed, Duration: *dur, Clients: *clients,
			RegularFiles: *files, InstalledFiles: *files / 2,
			ReadRate: *readRate, WriteRate: *writeRate,
		})
	case "poisson":
		tr = trace.Poisson(trace.PoissonConfig{
			Seed: *seed, Duration: *dur, Clients: *clients, Files: *files,
			ReadRate: *readRate, WriteRate: *writeRate,
		})
	case "bursty":
		tr = trace.Bursty(trace.BurstyConfig{
			Seed: *seed, Duration: *dur, Clients: *clients, Files: *files,
			ReadRate: *readRate, WriteRate: *writeRate,
			WorkingSet: minInt(12, *files),
		})
	case "shared":
		tr = trace.Shared(trace.SharedConfig{
			Seed: *seed, Duration: *dur, Clients: *clients, Files: *files,
			ReadRate: *readRate, WriteRate: *writeRate,
		})
	case "":
		if *in == "" {
			log.Fatal("leaseload: need -gen or -in")
		}
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("leaseload: %v", err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			log.Fatalf("leaseload: reading %s: %v", *in, err)
		}
	default:
		log.Fatalf("leaseload: unknown generator %q", *gen)
	}

	if !*skipPrepare {
		if err := replay.Prepare(*addr, tr); err != nil {
			log.Fatalf("leaseload: preparing files: %v", err)
		}
	}
	pacing := fmt.Sprintf("at %gx", *speedup)
	if *open {
		pacing = "open-loop"
	}
	fmt.Printf("replaying %d events (%d clients, %d files, depth %d) %s against %s...\n",
		len(tr.Events), tr.Clients, tr.Files, maxInt(*depth, 1), pacing, *addr)
	var tcr *tracing.Tracer
	if *traceSample > 0 {
		tcr = tracing.New(tracing.Config{
			Node: "load", SampleRate: *traceSample, Seed: *seed, SlowN: 8,
		})
	}
	res, err := replay.Run(replay.Config{
		Addr: *addr, Trace: tr, Speedup: *speedup, MaxOps: *maxOps,
		Depth: *depth, OpenLoop: *open, Tracer: tcr,
	})
	if err != nil {
		log.Fatalf("leaseload: %v", err)
	}
	fmt.Printf("done in %v\n", res.WallTime.Truncate(time.Millisecond))
	fmt.Printf("  ops: %d (%d reads, %d writes), errors: %d\n", res.Ops, res.Reads, res.Writes, res.Errors)
	if *open {
		secs := res.WallTime.Seconds()
		if secs > 0 {
			fmt.Printf("  throughput: %.0f ops/s, window stalls: %d\n", float64(res.Ops)/secs, res.Stalls)
		}
	}
	if res.Reads > 0 {
		fmt.Printf("  cache hit rate: %.1f%%\n", 100*float64(res.ReadHits)/float64(res.Reads))
	}
	printClass("cached read", res.CachedRead)
	printClass("uncached read", res.UncachedRead)
	printClass("write", res.WriteLatency)
	if tcr != nil {
		started, finished, _, _ := tcr.Stats()
		fmt.Printf("  traces: %d sampled, %d completed; slowest:\n", started, finished)
		for _, trc := range tcr.Slowest(8) {
			id, _ := trc.ID.MarshalJSON()
			fmt.Printf("    %-14s %8v  trace=%s  (%d spans; fetch the server half at /traces?n=0)\n",
				trc.Op, trc.Duration.Truncate(time.Microsecond), id, len(trc.Spans))
		}
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// printClass reports one op class's client-observed latency
// distribution — exact nearest-rank percentiles, the paper's
// formula-2 view of consistency-induced delay per operation.
func printClass(name string, s replay.LatencySummary) {
	if s.Count == 0 {
		fmt.Printf("  %-13s n=0\n", name)
		return
	}
	fmt.Printf("  %-13s n=%-6d p50=%v p95=%v p99=%v mean=%v max=%v\n",
		name, s.Count,
		s.P50.Truncate(time.Microsecond), s.P95.Truncate(time.Microsecond),
		s.P99.Truncate(time.Microsecond), s.Mean.Truncate(time.Microsecond),
		s.Max.Truncate(time.Microsecond))
}

// pfPath maps a portfolio file index to its server path. The files
// live under one directory so installed mode needs a single
// -installed-dirs /pf prefix on the server.
func pfPath(i int) string { return fmt.Sprintf("/pf/%d", i) }

// runPortfolio is the -mode workload: every client holds the same
// portfolio of leases and keeps it renewed for dur of wall time; the
// extension traffic each strategy costs is read off the clients'
// per-message-type wire counters.
func runPortfolio(addr, mode string, nclients, nfiles int, dur, renew time.Duration) {
	switch mode {
	case "perfile", "batched", "installed":
	default:
		log.Fatalf("leaseload: unknown -mode %q (want perfile, batched or installed)", mode)
	}

	prep, err := client.Dial(addr, client.Config{ID: "pf-prepare"})
	if err != nil {
		log.Fatalf("leaseload: %v", err)
	}
	// Mkdir/Create tolerate an already-prepared tree from a previous run;
	// the seeding write must succeed either way.
	prep.Mkdir("/pf", vfs.DefaultPerm|vfs.WorldWrite)
	for i := 0; i < nfiles; i++ {
		prep.Create(pfPath(i), vfs.DefaultPerm|vfs.WorldWrite)
		if err := prep.Write(pfPath(i), []byte("portfolio seed")); err != nil {
			log.Fatalf("leaseload: seeding %s: %v", pfPath(i), err)
		}
	}
	prep.Close()

	// The seeding writes stamp every file's last-write time, and the
	// server refuses class promotion until its -quiet-after-write
	// holdoff has passed. Wait it out before the reads that install the
	// files; the server must be running with a holdoff below this.
	if mode == "installed" {
		time.Sleep(time.Second)
	}

	// In installed mode the client's own renewal loop runs (it fetches
	// the class snapshot and extends whatever the broadcasts leave due —
	// with the class covering everything, nothing); the other modes
	// drive renewal explicitly, so the loop stays off.
	auto := time.Duration(0)
	if mode == "installed" {
		auto = renew
	}
	caches := make([]*client.Cache, nclients)
	for i := range caches {
		c, err := client.Dial(addr, client.Config{
			ID: fmt.Sprintf("pf-%d", i), AutoExtend: auto, Seed: int64(i) + 1,
		})
		if err != nil {
			log.Fatalf("leaseload: client %d: %v", i, err)
		}
		defer c.Close()
		for f := 0; f < nfiles; f++ {
			if _, err := c.Read(pfPath(f)); err != nil {
				log.Fatalf("leaseload: client %d reading %s: %v", i, pfPath(f), err)
			}
		}
		caches[i] = c
	}
	// Let setup traffic (initial grants, the installed-snapshot fetch)
	// drain before the measurement window opens.
	time.Sleep(300 * time.Millisecond)

	type probe struct {
		label string
		t     proto.MsgType
		dir   string // the client-side direction
	}
	probes := []probe{
		{"extend req", proto.TExtend, "out"},
		{"extend rep", proto.TExtendRep, "in"},
		{"snapshot req", proto.TInstalled, "out"},
		{"snapshot rep", proto.TInstalledRep, "in"},
		{"broadcast push", proto.TBroadcastExt, "in"},
	}
	base := make([][]uint64, len(caches))
	for i, c := range caches {
		base[i] = make([]uint64, len(probes))
		for j, p := range probes {
			base[i][j] = c.WireStats().Frames(p.t, p.dir)
		}
	}

	fmt.Printf("portfolio mode=%s: %d clients × %d files for %v (renew %v) against %s...\n",
		mode, nclients, nfiles, dur, renew, addr)
	var renewErrs atomic.Int64
	start := time.Now()
	if mode == "installed" {
		time.Sleep(dur)
	} else {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range caches {
			wg.Add(1)
			go func(c *client.Cache) {
				defer wg.Done()
				t := time.NewTicker(renew)
				defer t.Stop()
				for {
					select {
					case <-done:
						return
					case <-t.C:
					}
					switch mode {
					case "perfile":
						for _, d := range c.HeldData() {
							if err := c.ExtendData([]vfs.Datum{d}); err != nil {
								renewErrs.Add(1)
							}
						}
					case "batched":
						if err := c.ExtendAll(); err != nil {
							renewErrs.Add(1)
						}
					}
				}
			}(c)
		}
		time.Sleep(dur)
		close(done)
		wg.Wait()
	}
	window := time.Since(start).Seconds()

	totals := make([]uint64, len(probes))
	var total uint64
	for i, c := range caches {
		for j, p := range probes {
			n := c.WireStats().Frames(p.t, p.dir) - base[i][j]
			totals[j] += n
			total += n
		}
	}
	for j, p := range probes {
		if totals[j] > 0 {
			fmt.Printf("  %-14s %7d frames  (%.2f/s)\n", p.label, totals[j], float64(totals[j])/window)
		}
	}
	fmt.Printf("  extension messages: %d total, %.2f/s, %.3f/client/s, %.4f/file/s\n",
		total, float64(total)/window,
		float64(total)/window/float64(nclients),
		float64(total)/window/float64(nclients*nfiles))
	if n := renewErrs.Load(); n > 0 {
		fmt.Printf("  renewal errors: %d\n", n)
		os.Exit(1)
	}
}

// rgPath maps a sharded-workload file index to its server path; the
// indices hash across every group in the ring.
func rgPath(i int) string { return fmt.Sprintf("/rg/f%d", i) }

// runRing is the -ring workload: per-client Routers drive a mixed
// read/write/rename load across a sharded deployment. Renames toggle a
// per-client pair of paths back and forth, so with enough clients some
// pairs straddle groups and exercise the cross-shard move; the
// NOT_OWNER redirect counter is reported so rollout tests can assert
// convergence.
func runRing(spec string, nclients, nfiles int, dur time.Duration, seed int64) {
	ring, err := shard.Parse(spec)
	if err != nil {
		log.Fatalf("leaseload: -ring: %v", err)
	}

	prep, err := client.NewRouter(ring, client.Config{ID: "rg-prepare"})
	if err != nil {
		log.Fatalf("leaseload: %v", err)
	}
	// The directory skeleton and files tolerate an already-prepared tree
	// from a previous run; the seeding writes must succeed either way.
	prep.Mkdir("/rg", vfs.DefaultPerm|vfs.WorldWrite)
	for i := 0; i < nfiles; i++ {
		prep.Create(rgPath(i), vfs.DefaultPerm|vfs.WorldWrite)
		if err := prep.Write(rgPath(i), []byte(fmt.Sprintf("rg seed %d", i))); err != nil {
			log.Fatalf("leaseload: seeding %s: %v", rgPath(i), err)
		}
	}
	// Per-client rename pairs: created here so the rename loop below
	// starts from a known side of each pair.
	for i := 0; i < nclients; i++ {
		a := fmt.Sprintf("/rg/mv%d-a", i)
		prep.Create(a, vfs.DefaultPerm|vfs.WorldWrite)
		if err := prep.Write(a, []byte("mover")); err != nil {
			log.Fatalf("leaseload: seeding %s: %v", a, err)
		}
	}
	prep.Close()

	crossPairs := 0
	for i := 0; i < nclients; i++ {
		if ring.Lookup(fmt.Sprintf("/rg/mv%d-a", i)) != ring.Lookup(fmt.Sprintf("/rg/mv%d-b", i)) {
			crossPairs++
		}
	}
	fmt.Printf("ring workload: %d clients × %d files for %v over %d groups (epoch %d, %d cross-shard rename pairs)...\n",
		nclients, nfiles, dur, len(ring.GroupIDs()), ring.Epoch, crossPairs)

	var reads, writes, renames, errs, redirects atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for ci := 0; ci < nclients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			r, err := client.NewRouter(ring, client.Config{ID: fmt.Sprintf("rg-%d", ci), Seed: seed + int64(ci)})
			if err != nil {
				log.Printf("leaseload: client %d: %v", ci, err)
				errs.Add(1)
				return
			}
			defer func() {
				redirects.Add(r.Redirects())
				r.Close()
			}()
			rng := rand.New(rand.NewSource(seed + int64(ci)*7919))
			from := fmt.Sprintf("/rg/mv%d-a", ci)
			to := fmt.Sprintf("/rg/mv%d-b", ci)
			for step := 0; time.Now().Before(deadline); step++ {
				f := rgPath(rng.Intn(nfiles))
				switch d := rng.Intn(10); {
				case d < 7:
					if _, err := r.Read(f); err != nil {
						log.Printf("leaseload: client %d read %s: %v", ci, f, err)
						errs.Add(1)
					}
					reads.Add(1)
				case d < 9:
					if err := r.Write(f, []byte(fmt.Sprintf("c%d step %d", ci, step))); err != nil {
						log.Printf("leaseload: client %d write %s: %v", ci, f, err)
						errs.Add(1)
					}
					writes.Add(1)
				default:
					if err := r.Rename(from, to); err != nil {
						log.Printf("leaseload: client %d rename %s -> %s: %v", ci, from, to, err)
						errs.Add(1)
					}
					renames.Add(1)
					from, to = to, from
				}
			}
		}(ci)
	}
	wg.Wait()
	total := reads.Load() + writes.Load() + renames.Load()
	fmt.Printf("  ops: %d (%d reads, %d writes, %d renames), errors: %d, redirects: %d\n",
		total, reads.Load(), writes.Load(), renames.Load(), errs.Load(), redirects.Load())
	if errs.Load() > 0 {
		os.Exit(1)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
