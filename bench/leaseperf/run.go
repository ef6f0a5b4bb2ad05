package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leases/bench/topo"
	"leases/internal/client"
	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
)

// Common rules of every workload.
const (
	leaseTerm    = time.Second           // the paper's 10s, compressed 10×
	allowance    = 10 * time.Millisecond // ε
	electionTerm = 2 * time.Second
	peerDelay    = time.Millisecond // one way, repl_write peer links
	numConns     = 2
	sampleEvery  = 16 // traced run: one op in sampleEvery is traced
)

// opClass files a completed op's latency.
type opClass uint8

const (
	clsMissRead    opClass = iota // a read that went to the server
	clsHitRead                    // a read served from the cache
	clsWrite                      // a write no other connection holds a lease against
	clsSharedWrite                // a write to a file the other connection reads
	clsRename                     // a rename within one shard
	clsXRename                    // a cross-shard rename
	numClasses
)

func (c opClass) isRead() bool   { return c == clsMissRead || c == clsHitRead }
func (c opClass) isWrite() bool  { return c == clsWrite || c == clsSharedWrite }
func (c opClass) isRename() bool { return c == clsRename || c == clsXRename }

// sample is one completed op: when it completed, relative to the run's
// epoch, and how long it took from the instant it was due.
type sample struct {
	done time.Duration
	lat  time.Duration
}

// params sizes one run.
type params struct {
	seed    int64
	seconds float64 // measured window
	warmup  float64 // discarded warm-up, spread over the phases
	sizeDiv int     // divides the large file sets; 1 = as specified
	setups  int     // timed set-ups; the run uses the last
	traced  bool
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }
func (p params) warm() time.Duration   { return time.Duration(p.warmup * float64(time.Second)) }

// env is one booted workload: the deployment, its two load connections
// and everything the run counts.
type env struct {
	p     params
	topo  *topo.Topology
	pl    *payloads
	or    *oracle
	conns []*conn
	epoch time.Time

	srvObs, cliObs *obs.Observer   // traced run only
	srvTr, cliTr   *tracing.Tracer // traced run only
	spans          *spanLog        // traced run only

	measuring atomic.Bool
	done      [numClasses]atomic.Int64 // ops completed while measuring
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
	offered   atomic.Int64 // open loop: ops scheduled while measuring
	refused   atomic.Int64 // writes a replicated master refused and the generator reissued
	crossed   atomic.Int64 // writes an invalidation crossed and the generator reissued
	// reads of installed files completed while measuring, and how many
	// of them the cache served.
	instReads, instHits atomic.Int64
	isInst              func(file int) bool

	mu      sync.Mutex
	samples [numClasses][]sample
	late    []time.Duration // open loop: issue − due
}

// conn is one load connection: a cache on one session, or a router
// holding a session per shard group.
type conn struct {
	id     int
	cache  *client.Cache
	router *client.Router
	sock   *sockCounts  // nil where the client dials for itself
	nOps   atomic.Int64 // ops issued, for span sampling
}

// fail counts a failed op and keeps the first error for the report.
func (e *env) fail(err error) {
	e.failed.Add(1)
	msg := err.Error()
	e.firstErr.CompareAndSwap(nil, &msg)
}

// record files one completed op. due is when the op was due (for a
// closed loop, when it was issued).
func (e *env) record(cls opClass, due, issued, done time.Time) {
	if !e.measuring.Load() {
		return
	}
	e.done[cls].Add(1)
	s := sample{done: done.Sub(e.epoch), lat: done.Sub(due)}
	e.mu.Lock()
	e.samples[cls] = append(e.samples[cls], s)
	if issued.After(due) {
		e.late = append(e.late, issued.Sub(due))
	}
	e.mu.Unlock()
}

// read performs one checked read of file at path and files it. due is
// when an open loop scheduled the op; a closed loop passes the zero
// time and the op is due when it is issued.
func (e *env) read(c *conn, file int, path string, due time.Time) {
	e.attempted.Add(1)
	floor := e.or.floor(file)
	issued := time.Now()
	if due.IsZero() {
		due = issued
	}
	sp := e.spans.begin(c, "read", due, issued)
	var data []byte
	var hit bool
	var err error
	if c.router != nil {
		data, err = c.router.Read(path)
	} else {
		rc := c.cache.StartRead(path)
		hit = rc.Hit()
		data, err = rc.Wait()
	}
	done := time.Now()
	sp.end(done)
	if err != nil {
		e.fail(fmt.Errorf("read %s: %w", path, err))
		return
	}
	if !e.or.check(file, floor, data) {
		e.fail(fmt.Errorf("read %s: stale or corrupt", path))
		return
	}
	cls := clsMissRead
	if hit {
		cls = clsHitRead
	}
	if e.isInst != nil && e.isInst(file) && e.measuring.Load() {
		e.instReads.Add(1)
		if hit {
			e.instHits.Add(1)
		}
	}
	e.record(cls, due, issued, done)
}

// write performs one write of (file, seq) at path and files it; due as
// for read.
func (e *env) write(c *conn, cls opClass, file int, seq uint64, path string, buf []byte, due time.Time) {
	e.attempted.Add(1)
	e.pl.fill(buf, file, seq)
	issued := time.Now()
	if due.IsZero() {
		due = issued
	}
	sp := e.spans.begin(c, "write", due, issued)
	var err error
	if c.router != nil {
		err = c.router.Write(path, buf)
	} else {
		err = e.cacheWrite(c, path, buf)
	}
	done := time.Now()
	sp.end(done)
	if err != nil {
		e.fail(fmt.Errorf("write %s: %w", path, err))
		return
	}
	e.or.ack(file, seq)
	e.record(cls, due, issued, done)
}

// cacheWrite writes through a cache and works around a defect of it
// that the freshness oracle found (README, findings): when an approval
// push for any datum reaches the client while its write is in flight,
// the client rightly declines to cache the write's reply — but keeps
// its older copy of the file, still under a valid lease, and serves it
// to the next read. The benchmark needs a workload on which no op
// fails, so a write that an invalidation crossed is issued again: the
// second reply is cached and the stale copy replaced. Callers keep the
// connection's reads of the file out until this returns.
func (e *env) cacheWrite(c *conn, path string, buf []byte) error {
	for try := 0; ; try++ {
		before := c.cache.Metrics().Invalidations
		err := c.cache.Write(path, buf)
		if err != nil || try == 3 || c.cache.Metrics().Invalidations == before {
			return err
		}
		e.crossed.Add(1)
	}
}

// rename performs one rename through the router and files it.
func (e *env) rename(c *conn, from, to string, cross bool) {
	e.attempted.Add(1)
	issued := time.Now()
	sp := e.spans.begin(c, "rename", issued, issued)
	err := c.router.Rename(from, to)
	done := time.Now()
	sp.end(done)
	if err != nil {
		e.fail(fmt.Errorf("rename %s → %s: %w", from, to, err))
		return
	}
	cls := clsRename
	if cross {
		cls = clsXRename
	}
	e.record(cls, issued, issued, done)
}

// sockCounts counts the read and write calls a client makes on its
// socket, across reconnects: the syscalls per op the client's coalescer
// and frame reader leave.
type sockCounts struct {
	reads, writes atomic.Int64
}

// countingConn is one connection feeding a sockCounts.
type countingConn struct {
	net.Conn
	n *sockCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

// dial opens load connection id against the booted deployment.
func (e *env) dial(id int, autoExtend time.Duration) (*conn, error) {
	c := &conn{id: id}
	cfg := client.Config{
		ID:         fmt.Sprintf("load%d", id),
		Allowance:  allowance,
		AutoExtend: autoExtend,
		Obs:        e.cliObs,
		Tracer:     e.cliTr,
		Seed:       e.p.seed*97 + int64(id) + 1,
	}
	switch e.topo.Kind {
	case topo.Shard2:
		r, err := client.NewRouter(e.topo.Ring, cfg)
		if err != nil {
			return nil, err
		}
		c.router = r
	case topo.Repl3:
		// DialReplicas walks the replica list with this Redial until one
		// accepts the hello; starting at the elected master makes the
		// first attempt the last.
		master, err := e.topo.WaitMaster(30 * time.Second)
		if err != nil {
			return nil, err
		}
		c.sock = &sockCounts{}
		next := master
		cfg.Replicas = e.topo.Addrs
		cfg.Reconnect = true
		cfg.Redial = func() (net.Conn, error) {
			addr := e.topo.Addrs[next%len(e.topo.Addrs)]
			next++
			nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return countingConn{nc, c.sock}, nil
		}
		cache, err := client.DialReplicas(cfg)
		if err != nil {
			return nil, err
		}
		c.cache = cache
	default:
		nc, err := net.DialTimeout("tcp", e.topo.Addrs[0], 2*time.Second)
		if err != nil {
			return nil, err
		}
		c.sock = &sockCounts{}
		cache, err := client.NewFromConn(countingConn{nc, c.sock}, cfg)
		if err != nil {
			return nil, err
		}
		c.cache = cache
	}
	return c, nil
}

func (c *conn) close() {
	if c.router != nil {
		c.router.Close()
	}
	if c.cache != nil {
		c.cache.Close()
	}
}

// caches lists the sessions behind a connection: one, or one per shard
// group.
func (e *env) caches(c *conn) []*client.Cache {
	if c.cache != nil {
		return []*client.Cache{c.cache}
	}
	var out []*client.Cache
	for _, gid := range e.topo.Ring.GroupIDs() {
		if gc, err := c.router.GroupCache(gid); err == nil {
			out = append(out, gc)
		}
	}
	return out
}

// wireTotals is frames and bytes by message type, both directions
// summed unless noted. The handshake's frames are left out: they are
// set-up, not ops.
type wireTotals struct {
	frames, bytes        uint64
	ext, approval, bcast uint64 // frames of those families
	lookupOut, readOut   uint64 // frames sent, by type: the client's requests
	writeOut, renameOut  uint64
}

func sumWire(stats ...*proto.WireStats) wireTotals {
	var w wireTotals
	for _, s := range stats {
		for _, row := range s.Snapshot() {
			switch row.Type {
			case proto.THello, proto.THelloAck, proto.TNotMaster:
				continue
			case proto.TExtend, proto.TExtendRep, proto.TPiggyExt:
				w.ext += row.Frames
			case proto.TApprovalReq, proto.TApprove:
				w.approval += row.Frames
			case proto.TBroadcastExt:
				w.bcast += row.Frames
			}
			w.frames += row.Frames
			w.bytes += row.Bytes
			if row.Dir == "out" {
				switch row.Type {
				case proto.TLookup:
					w.lookupOut += row.Frames
				case proto.TRead:
					w.readOut += row.Frames
				case proto.TWrite:
					w.writeOut += row.Frames
				case proto.TRename:
					w.renameOut += row.Frames
				}
			}
		}
	}
	return w
}

// counters is everything the run counts, read at one instant. A phase's
// figures are the difference of the counters at its two ends.
type counters struct {
	at         time.Time
	cpu        time.Duration // process user+sys
	mallocs    uint64
	gcPause    time.Duration
	done       [numClasses]int64
	cli        client.Metrics // summed over sessions
	cliWire    wireTotals
	srvWire    wireTotals
	srv        core.ManagerMetrics // summed over servers
	sysReads   int64
	sysWrites  int64
	peerFrames uint64
	peerBytes  uint64
	redirects  int64
	elections  int64
	refused    int64
	crossed    int64
	flushes    int64 // traced run: server-side flushes observed
	flushedFr  float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// snapshot reads every counter. full also reads the allocator's, which
// stops the world briefly and so is taken at phase ends only.
func (e *env) snapshot(full bool) counters {
	c := counters{at: time.Now(), cpu: processCPU()}
	if full {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.mallocs, c.gcPause = ms.Mallocs, time.Duration(ms.PauseTotalNs)
	}
	for i := range c.done {
		c.done[i] = e.done[i].Load()
	}
	var cliWire []*proto.WireStats
	for _, cn := range e.conns {
		for _, cache := range e.caches(cn) {
			m := cache.Metrics()
			c.cli.Reads += m.Reads
			c.cli.ReadHits += m.ReadHits
			c.cli.Lookups += m.Lookups
			c.cli.Invalidations += m.Invalidations
			cliWire = append(cliWire, cache.WireStats())
		}
		if cn.sock != nil {
			c.sysReads += cn.sock.reads.Load()
			c.sysWrites += cn.sock.writes.Load()
		}
		if cn.router != nil {
			c.redirects += cn.router.Redirects()
		}
	}
	c.cliWire = sumWire(cliWire...)
	var srvWire []*proto.WireStats
	for _, s := range e.topo.Servers {
		srvWire = append(srvWire, s.WireStats())
		m := s.Metrics()
		c.srv.Grants += m.Grants
		c.srv.WritesImmediate += m.WritesImmediate
		c.srv.WritesDeferred += m.WritesDeferred
		c.srv.ExpiryReleases += m.ExpiryReleases
	}
	c.srvWire = sumWire(srvWire...)
	for _, l := range e.topo.Lines {
		up, down := l.Up(), l.Down()
		c.peerFrames += up.Frames + down.Frames
		c.peerBytes += up.Bytes + down.Bytes
	}
	c.elections = e.topo.Elections()
	c.refused = e.refused.Load()
	c.crossed = e.crossed.Load()
	if e.srvObs != nil {
		fr, _ := e.srvObs.FlushStats()
		c.flushes, c.flushedFr = fr.Count, fr.Sum
	}
	return c
}

// phaseResult is one measured phase: its name, the counters at its two
// ends, and one light snapshot per slice in between.
type phaseResult struct {
	name       string
	start, end counters
	slices     []counters // slices[i] closes slice i; the last equals end
	goroutines int        // peak seen at slice ends
}

// sliceCount is how many equal slices a measured phase is cut into:
// enough for a median and quartiles of per-slice rates. (A 15 s phase
// gives the one-second slices the issue describes.)
const sliceCount = 15

// measure runs body on every connection for dur, recording ops, and
// returns the phase's counters. body must return once until has passed.
func (e *env) measure(name string, dur time.Duration, body func(c *conn, until time.Time)) phaseResult {
	pr := phaseResult{name: name}
	pr.start = e.snapshot(true)
	until := pr.start.at.Add(dur)
	e.measuring.Store(true)
	var wg sync.WaitGroup
	for _, c := range e.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			body(c, until)
		}(c)
	}
	for i := 1; i < sliceCount; i++ {
		time.Sleep(time.Until(pr.start.at.Add(time.Duration(i) * dur / sliceCount)))
		pr.slices = append(pr.slices, e.snapshot(false))
		if g := runtime.NumGoroutine(); g > pr.goroutines {
			pr.goroutines = g
		}
	}
	time.Sleep(time.Until(until))
	e.measuring.Store(false)
	pr.end = e.snapshot(true)
	pr.slices = append(pr.slices, pr.end)
	wg.Wait()
	return pr
}

// warm runs body on every connection for dur with recording off.
func (e *env) warm(dur time.Duration, body func(c *conn, until time.Time)) {
	until := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, c := range e.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			body(c, until)
		}(c)
	}
	wg.Wait()
}

// rssPeakMB reads the process's peak resident set from /proc.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
