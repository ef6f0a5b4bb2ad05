package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"leases/bench/topo"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
)

// runData is what one run of a workload leaves for the metrics: the
// timed set-ups, the measured phases, the latency samples and — from a
// traced run — the spans.
type runData struct {
	w          workload
	p          params
	pl         *plan
	setups     []time.Duration
	phases     []phaseResult
	samples    [numClasses][]sample
	late       []time.Duration
	epoch      time.Time
	offered    int // open loop: ops scheduled in the window
	instReads  int64
	instHits   int64
	attempted  int64
	failed     int64
	stale      int64
	corrupt    int64
	firstErr   string
	leasesLive int
	classMemb  int
	rssPeakMB  float64
	failoverMs float64 // traced repl_write only
	rows       []spanRow
	probes     probeTimes
	quorumP50  float64 // traced: server-observed quorum wait, µs
}

// newTracer sizes a tracer to keep every segment a traced run samples
// over seconds of traffic: the busiest workload completes under 40 000
// ops/s, each op a lookup and a read or write, one in sampleEvery of
// them sampled.
func newTracer(node string, seed int64, seconds float64) *tracing.Tracer {
	keep := int(seconds*40_000/sampleEvery)*2 + 4096
	return tracing.New(tracing.Config{
		Node: node, SampleRate: 1.0 / sampleEvery, Seed: seed,
		Completed: keep, MaxActive: 4096,
	})
}

// boot brings the workload's deployment up, dials the load connections
// and performs each connection's first op.
func boot(w workload, p params, pl *plan) (*env, error) {
	e := &env{p: p, pl: newPayloads(p.seed), isInst: pl.isInst}
	e.or = newOracle(len(pl.files.paths))
	if p.traced {
		e.srvObs, e.cliObs = obs.New(obs.Config{}), obs.New(obs.Config{})
		// The window, and the warm-ups before it: the ring keeps the
		// newest segments, and the first phase's must outlast the last
		// phase's warm-up.
		traffic := p.seconds + p.warmup
		for _, ph := range pl.phases {
			traffic += ph.warmCap.Seconds()
		}
		e.srvTr = newTracer("srv", p.seed+1, traffic)
		e.cliTr = newTracer("cli", p.seed+2, traffic)
		e.spans = &spanLog{}
	}
	t, err := topo.Boot(topo.Config{
		Kind: pl.kind, Term: leaseTerm, Allowance: allowance,
		ElectionTerm: electionTerm, PeerDelay: peerDelay,
		Class: pl.class, Obs: e.srvObs, Tracer: e.srvTr,
		Seed: p.seed, Files: pl.files.seeder(e.pl),
	})
	if err != nil {
		return nil, err
	}
	e.topo = t
	for id := 0; id < numConns; id++ {
		c, err := e.dial(id, pl.autoExtend)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s: dialing connection %d: %w", w.name, id, err)
		}
		e.conns = append(e.conns, c)
	}
	if pl.prepare != nil {
		pl.prepare(e)
	}
	// The first op: a read, through whatever path resolution and session
	// set-up the client does lazily.
	for _, c := range e.conns {
		e.read(c, pl.first[c.id], pl.files.paths[pl.first[c.id]], time.Time{})
	}
	if n := e.failed.Load(); n > 0 {
		msg := *e.firstErr.Load()
		e.close()
		return nil, fmt.Errorf("%s: first op failed: %s", w.name, msg)
	}
	return e, nil
}

func (e *env) close() {
	for _, c := range e.conns {
		c.close()
	}
	if e.topo != nil {
		e.topo.Close()
	}
}

// runWorkload runs w once: p.setups timed set-ups (all but the last
// torn down at once), then per phase a warm-up and a measured stretch,
// then the read-back check.
func runWorkload(w workload, p params) (*runData, error) {
	rd := &runData{w: w, p: p}
	var e *env
	for i := 0; i < p.setups; i++ {
		if e != nil {
			e.close()
		}
		// Every set-up starts from a collected heap, as the first one
		// does: seeding into a heap the last set-up already grew skips
		// the collections that growing it costs, and would make the
		// set-ups of one run differ by a factor.
		runtime.GC()
		// Every set-up gets a fresh plan: a plan carries the positions
		// and sequences its phases advance.
		rd.pl = w.build(p)
		start := time.Now()
		var err error
		if e, err = boot(w, p, rd.pl); err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, time.Since(start))
	}
	defer e.close()
	// The window starts from a collected heap too, so the collector's
	// pacing depends on the workload and not on what set-up left behind.
	runtime.GC()
	e.epoch = time.Now()
	rd.epoch = e.epoch

	n := len(rd.pl.phases)
	for _, ph := range rd.pl.phases {
		body := func(c *conn, until time.Time) { ph.body(e, c, until) }
		warm := p.warm() / time.Duration(n)
		if ph.warmCap > 0 {
			warm = ph.warmCap
		}
		e.warm(warm, body)
		rd.phases = append(rd.phases, e.measure(ph.name, p.window()/time.Duration(n), body))
	}
	for _, s := range e.topo.Servers {
		rd.leasesLive += s.LeaseCount()
	}
	if rd.pl.class.InstalledDirs != nil {
		_, rd.classMemb, _ = e.conns[0].cache.InstalledClass()
	}
	rd.pl.verify(e)

	rd.samples, rd.late = e.samples, e.late
	rd.offered = int(e.offered.Load())
	rd.instReads, rd.instHits = e.instReads.Load(), e.instHits.Load()
	if p.traced {
		rd.probes = runProbes(e, rd)
		if rd.pl.kind == topo.Repl3 {
			rd.failoverMs = e.failover(rd.pl)
		}
		rd.rows = append(e.spans.rows, harvest(e.cliTr)...)
		rd.rows = append(rd.rows, harvest(e.srvTr)...)
		for _, ol := range e.srvObs.OpLatencies() {
			if ol.Op == "repl-quorum-wait" {
				rd.quorumP50 = ol.Hist.P50 * 1e6
			}
		}
	}
	rd.attempted, rd.failed = e.attempted.Load(), e.failed.Load()
	rd.stale, rd.corrupt = e.or.stale.Load(), e.or.corrupt.Load()
	if msg := e.firstErr.Load(); msg != nil {
		rd.firstErr = *msg
	}
	rd.rssPeakMB = rssPeakMB()
	return rd, nil
}

// failover stops the master once and returns how long the service was
// away: from the stop to the first write acknowledged afterward, in ms.
// It runs after the measured window, never in it.
func (e *env) failover(pl *plan) float64 {
	master, err := e.topo.WaitMaster(10 * time.Second)
	if err != nil {
		e.fail(err)
		return 0
	}
	c := e.conns[0]
	last := len(pl.files.paths) - 1
	buf := make([]byte, payloadSize)
	start := time.Now()
	e.topo.StopReplica(master)
	// The session layer redials and resubmits inside Write; a budget
	// that runs out before the new master serves just means asking again.
	for seq := uint64(1 << 40); time.Since(start) < 30*time.Second; seq++ {
		e.pl.fill(buf, last, seq)
		if err := c.cache.Write(pl.files.paths[last], buf); err == nil {
			return float64(time.Since(start)) / float64(time.Millisecond)
		}
	}
	e.fail(fmt.Errorf("no write acknowledged within 30s of stopping the master"))
	return 0
}

// phaseNamed returns the measured phase with that name, or the only
// phase of a single-phase workload.
func (rd *runData) phaseNamed(name string) *phaseResult {
	for i := range rd.phases {
		if rd.phases[i].name == name {
			return &rd.phases[i]
		}
	}
	if len(rd.phases) == 1 {
		return &rd.phases[0]
	}
	return nil
}

// latencies returns the window's samples of one class in µs, with the
// index of the slice each completed in (slices numbered across phases).
func (rd *runData) latencies(cls opClass) (us []float64, slices []int) {
	// Slice boundaries, as offsets from the epoch, ascending.
	var ends []time.Duration
	for _, ph := range rd.phases {
		for _, s := range ph.slices {
			ends = append(ends, s.at.Sub(rd.epoch))
		}
	}
	for _, s := range rd.samples[cls] {
		us = append(us, float64(s.lat)/float64(time.Microsecond))
		slices = append(slices, sort.Search(len(ends), func(i int) bool { return ends[i] >= s.done }))
	}
	return us, slices
}
