// Package chaos runs scripted failure scenarios against a real TCP
// lease deployment — server (internal/server), clients
// (internal/client) and the fault-injecting proxy (internal/faultnet)
// between them — and checks the paper's §2/§5 promise after each run:
// a non-Byzantine failure costs bounded delay, never inconsistency.
//
// Every scenario drives the same workload: one writer client appends a
// monotonically increasing sequence number to each of a small set of
// files while reader clients read them in a loop, all through the
// proxy. Two invariants are asserted:
//
//   - Consistency: no reader ever observes content older than the
//     highest write the writer had already seen acknowledged when the
//     read began. The checker snapshots the acknowledged floor before
//     each read; a read returning a smaller sequence number is a stale
//     read after an acknowledged conflicting write — the one outcome
//     the lease protocol must never produce.
//   - Bounded delay: no applied write waited for clearance longer than
//     the lease term allows. The bound is two terms plus slack: one
//     term for the longest outstanding lease (or the post-crash
//     recovery window, which the durable max-term file caps at one
//     term), and a second for a severed writer's orphaned first
//     attempt still clearing ahead of its retry in the same per-datum
//     FIFO queue.
//
// All randomness flows from Options.Seed — the proxy's drop dice and
// the clients' reconnect jitter — so a scenario replays the same fault
// pattern run after run, making a chaos run a regression test rather
// than a dice roll.
//
// The server's store is in-memory, so the server-crash scenario
// restarts it re-seeded with the last-acknowledged content of every
// file: what a durable store would have recovered. Writes the writer
// never saw acknowledged may be lost by the crash; the checker's floor
// only ever advances on acknowledgements, so that loss is invisible to
// the consistency assertion — exactly the §2 contract, which promises
// nothing about unacknowledged writes.
package chaos

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leases/internal/client"
	"leases/internal/cluster"
	"leases/internal/faultnet"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/server"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// The workload files. The writer alternates over the first two; the
// third is reserved for the client-crash probe, so its acknowledged
// floor only moves when that scenario's prober writes it.
var workFiles = []string{"/f0", "/f1", "/victim"}

const victimIdx = 2

// Options parameterizes one chaos run.
type Options struct {
	// Scenario names the fault script; see Scenarios.
	Scenario string
	// Seed drives every random choice (proxy fault dice, client
	// reconnect jitter). Zero means 1.
	Seed int64
	// Term is the server's fixed lease term. Zero means 1s.
	Term time.Duration
	// WriteTimeout bounds server-side write deferral. Zero means 6s.
	WriteTimeout time.Duration
	// Duration is the active fault phase; zero means the scenario's
	// default. Scenario scripts place their faults at fractions of it.
	Duration time.Duration
	// Readers is the number of reader clients. Zero means 3.
	Readers int
	// Obs receives every protocol and fault event of the run; nil means
	// a private observer. Reuse across runs skews the Report's event
	// totals, so share one only for event dumping.
	Obs *obs.Observer
	// Dir is the scratch directory for the durable max-term file; empty
	// means a private temp directory removed afterwards.
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the outcome of one scenario run. A run with violations
// still returns a Report (not an error): errors are reserved for
// harness setup failures.
type Report struct {
	Scenario string
	// Writes counts acknowledged writes; WriteErrors the attempts that
	// failed back to the writer (expected under faults — a failed write
	// promises nothing and the checker ignores it).
	Writes, WriteErrors int64
	Reads, ReadErrors   int64
	// StaleReads counts consistency violations — reads that returned
	// content older than the acknowledged floor. Must be zero.
	StaleReads int64
	// MaxWriteDelay is the largest client-observed latency of an
	// acknowledged write, across retries and reconnect waits.
	MaxWriteDelay time.Duration
	// MaxApplyWait is the largest server-side clearance wait of an
	// applied write (the paper's formula-2 delay); ApplyBound is the
	// limit it was checked against.
	MaxApplyWait, ApplyBound time.Duration
	Reconnects               int64
	// Expiries counts writes released by lease expiry — the
	// fault-tolerance path actually firing.
	Expiries    int64
	FaultEvents int64
	// ElectionTraces counts completed election traces containing the
	// full failover sequence (prepare, catch-up sync, promote) — the
	// replicated scenarios' tracing assertion.
	ElectionTraces int
	Violations     []Violation
}

// Violation is one checker finding, tagged with the lens (the named
// invariant) that tripped: "acked-floor" (a read older than an
// acknowledged write), "bounded-delay", "liveness", "election"
// (replicated scenarios), or "harness" (the rig itself broke).
type Violation struct {
	Lens string
	Msg  string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Lens, v.Msg) }

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// FailedLenses names the distinct checker lenses that tripped, in
// first-trip order — what a CI log should lead with.
func (r *Report) FailedLenses() []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range r.Violations {
		if !seen[v.Lens] {
			seen[v.Lens] = true
			out = append(out, v.Lens)
		}
	}
	return out
}

// String renders the report as an operator-facing block.
func (r *Report) String() string {
	var b strings.Builder
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	fmt.Fprintf(&b, "scenario %-13s %s\n", r.Scenario+":", status)
	fmt.Fprintf(&b, "  writes %d (%d errors)  reads %d (%d errors, %d stale)\n",
		r.Writes, r.WriteErrors, r.Reads, r.ReadErrors, r.StaleReads)
	fmt.Fprintf(&b, "  max write delay %v  max clearance wait %v (bound %v)\n",
		r.MaxWriteDelay.Round(time.Millisecond), r.MaxApplyWait.Round(time.Millisecond),
		r.ApplyBound.Round(time.Millisecond))
	fmt.Fprintf(&b, "  reconnects %d  expiry releases %d  fault events %d\n",
		r.Reconnects, r.Expiries, r.FaultEvents)
	if r.ElectionTraces > 0 {
		fmt.Fprintf(&b, "  complete election traces %d\n", r.ElectionTraces)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}

// scenarioSpec is one named fault script.
type scenarioSpec struct {
	name     string
	summary  string
	duration time.Duration
	// replicated scripts run against a 3-replica deployment with an
	// elected master instead of the standalone server.
	replicated bool
	// sharded scripts run against two replica groups behind a
	// consistent-hash ring, drive their own Router-based workload (the
	// standard writer/reader loops speak single sessions), and replace
	// the checker's file set with ring-placed names (see sharded.go).
	sharded bool
	// installed scripts run the server with the §4.3 installed-files
	// class on; see harness.classConfig.
	installed bool
	run       func(*harness)
}

// Scenarios lists the scenario names in run order.
func Scenarios() []string {
	out := make([]string, len(scenarioTable))
	for i, s := range scenarioTable {
		out[i] = s.name
	}
	return out
}

// Summary describes a scenario, for CLI listings.
func Summary(name string) string {
	for _, s := range scenarioTable {
		if s.name == name {
			return s.summary
		}
	}
	return ""
}

func findScenario(name string) (scenarioSpec, bool) {
	for _, s := range scenarioTable {
		if s.name == name {
			return s, true
		}
	}
	return scenarioSpec{}, false
}

// Run executes one scenario and reports what the checker saw. The
// returned error covers harness setup only; protocol violations land in
// Report.Violations.
func Run(opts Options) (*Report, error) {
	spec, ok := findScenario(opts.Scenario)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown scenario %q (have: %s)",
			opts.Scenario, strings.Join(Scenarios(), ", "))
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Term <= 0 {
		opts.Term = time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 6 * time.Second
	}
	if opts.Duration <= 0 {
		opts.Duration = spec.duration
	}
	if opts.Readers <= 0 {
		opts.Readers = 3
	}
	o := opts.Obs
	if o == nil {
		o = obs.New(obs.Config{RingSize: 1 << 15})
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "leasechaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	h := &harness{
		o:           opts,
		spec:        spec,
		obs:         o,
		maxTermPath: filepath.Join(dir, "maxterm"),
		ck:          newChecker(workFiles),
		stop:        make(chan struct{}),
		// Chaos runs fully sampled: every client operation and every
		// election records its span tree, so a run's report can assert
		// trace completeness, not just event counts. One tracer spans the
		// whole deployment (clients, servers, replica nodes live in this
		// process), so cross-node parents resolve locally.
		// The completed ring must outlast the whole workload: election
		// traces finish in the first seconds and the report scans for
		// them at the end, so a ring smaller than the op count would
		// evict them behind tens of thousands of client-op traces.
		tracer: tracing.New(tracing.Config{
			Node: "chaos", SampleRate: 1, Seed: opts.Seed, Completed: 1 << 17,
		}),
	}
	dial := func(id string, n int64) (*client.Cache, error) {
		return client.Dial(h.proxy.Addr(), h.clientCfg(id, n))
	}
	if spec.sharded {
		ss, err := newShardedSet(h, dir)
		if err != nil {
			return nil, err
		}
		h.shard = ss
		defer ss.close()
	} else if spec.replicated {
		rs, err := bootReplSet(h, dir, replSetConfig{})
		if err != nil {
			return nil, err
		}
		h.repl = rs
		defer rs.close()
		dial = func(id string, n int64) (*client.Cache, error) {
			cfg := h.clientCfg(id, n)
			cfg.Replicas = rs.clientAddrs()
			return client.DialReplicas(cfg)
		}
	} else {
		if err := h.startServer("127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer func() { h.srv.Stop() }() // the last incarnation

		proxy, err := faultnet.NewProxy(faultnet.ProxyConfig{
			Target: h.srvAddr, Seed: opts.Seed, Obs: o,
		})
		if err != nil {
			return nil, err
		}
		h.proxy = proxy
		defer proxy.Close()
	}

	h.logf("chaos: scenario %s: seed=%d term=%v duration=%v readers=%d",
		spec.name, opts.Seed, opts.Term, opts.Duration, opts.Readers)
	// Sharded scenarios drive their own Router-based workload from the
	// script; every other scenario gets the standard single-session
	// writer and readers.
	if !spec.sharded {
		writer, err := dial("writer", 1)
		if err != nil {
			return nil, err
		}
		h.clients = append(h.clients, writer)
		for i := 0; i < opts.Readers; i++ {
			r, err := dial(fmt.Sprintf("reader-%d", i), int64(2+i))
			if err != nil {
				closeAll(h.clients)
				return nil, err
			}
			h.clients = append(h.clients, r)
		}
		defer func() { closeAll(h.clients) }() // with any the script adds

		h.wg.Add(1)
		go h.writerLoop(writer)
		for i := 1; i < len(h.clients); i++ {
			h.wg.Add(1)
			go h.readerLoop(h.clients[i], i)
		}
	}

	spec.run(h)
	close(h.stop)
	h.wg.Wait()
	return h.report(), nil
}

func closeAll(cs []*client.Cache) {
	for _, c := range cs {
		c.Close()
	}
}

// harness wires one scenario's components together.
type harness struct {
	o           Options
	spec        scenarioSpec
	obs         *obs.Observer
	tracer      *tracing.Tracer
	maxTermPath string
	ck          *checker
	proxy       *faultnet.Proxy
	repl        *replSet    // non-nil for replicated scenarios
	shard       *shardedSet // non-nil for sharded scenarios
	clients     []*client.Cache

	srv     *cluster.Member // standalone scenarios' current incarnation
	srvAddr string

	stop chan struct{}
	wg   sync.WaitGroup
}

func (h *harness) logf(format string, args ...any) {
	if h.o.Logf != nil {
		h.o.Logf(format, args...)
	}
}

// startServer boots a server incarnation on addr ("host:0" on first
// boot, the previous concrete address on restart) seeded with the
// acknowledged content of every workload file. The durable max-term
// path is the same across incarnations — that file is what makes the
// restart observe the §2 recovery window.
func (h *harness) startServer(addr string) error {
	cfg := server.Config{
		Term:         h.o.Term,
		WriteTimeout: h.o.WriteTimeout,
		MaxTermPath:  h.maxTermPath,
		Obs:          h.obs,
		Tracer:       h.tracer,
	}
	if h.spec.installed {
		cfg.Class = h.classConfig()
	}
	m, err := cluster.New(cluster.Config{Server: cfg})
	if err != nil {
		return err
	}
	if err := seedFiles(m.Server.Store(), h.ck.seedContents()); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h.srv = m
	h.srvAddr = ln.Addr().String()
	return h.start(m, ln, "server")
}

// start starts a member on ln, retrying while its peer-mesh address,
// just released by a reservation or a crashed predecessor, rebinds. A
// server that stops serving before it is stopped fails the run.
func (h *harness) start(m *cluster.Member, ln net.Listener, who string) error {
	if err := retry(func() error { return m.Start(ln) }); err != nil {
		return err
	}
	go func() {
		if err := m.Wait(); err != nil {
			h.ck.violate("harness", "%s terminated with error: %v", who, err)
		}
	}()
	return nil
}

// crashServer crash-stops the current server incarnation: connections
// drop, deferred writes fail back, the in-memory lease table vanishes.
func (h *harness) crashServer() {
	h.srv.Stop()
}

// restartServer boots a fresh incarnation on the same address with the
// same durable max-term file. The listening port was just released by
// Stop, so rebinding retries briefly.
func (h *harness) restartServer() {
	if err := retry(func() error { return h.startServer(h.srvAddr) }); err != nil {
		h.ck.violate("harness", "server restart failed: %v", err)
	}
}

// retry runs f until it succeeds, for a couple of seconds at most: a
// restart rebinds an address its crashed predecessor, or a reservation,
// just released.
func retry(f func() error) (err error) {
	for i := 0; i < 50; i++ {
		if err = f(); err == nil {
			return nil
		}
		time.Sleep(40 * time.Millisecond)
	}
	return err
}

// classConfig sizes the lease-class subsystem for a chaos run, scaled
// to the per-file term: the whole tree is installed, the class term is
// two file terms (broadcast every half term), and the post-write quiet
// window is short enough that the hot files churn back into the class
// whenever the workload pauses — the §4.3 demote/re-promote cycle under
// faults.
func (h *harness) classConfig() server.ClassConfig {
	return server.ClassConfig{
		InstalledDirs:   []string{"/"},
		InstalledTerm:   2 * h.o.Term,
		QuietAfterWrite: h.o.Term / 4,
	}
}

func (h *harness) clientCfg(id string, n int64) client.Config {
	return client.Config{
		ID:                  id,
		Obs:                 h.obs,
		Tracer:              h.tracer,
		DialTimeout:         2 * time.Second,
		AutoExtend:          h.o.Term / 3,
		Reconnect:           true,
		ReconnectBackoff:    25 * time.Millisecond,
		ReconnectMaxBackoff: 500 * time.Millisecond,
		RetryWait:           harnessRetryWait,
		Seed:                h.o.Seed + n,
	}
}

// harnessRetryWait bounds how long one client operation waits for a
// reconnect; it must exceed every scenario's longest outage (the
// server-crash restart gap) so writes ride out faults via retry instead
// of failing.
const harnessRetryWait = 5 * time.Second

// settle lets the deployment quiesce after the last scripted fault:
// sessions reconnect, deferred writes clear, final acknowledgements
// land, so the report reflects the recovered state.
func (h *harness) settle() {
	time.Sleep(h.o.Term/2 + 700*time.Millisecond)
}

// writerLoop is the single writer: it alternates over the first two
// workload files, bumping each file's sequence number every write and
// advancing the checker's acknowledged floor on every success. Being
// the only writer per file keeps floors monotonic, and the server's
// per-datum FIFO write queue keeps store content monotonic even when a
// severed attempt's orphan applies alongside its retry.
func (h *harness) writerLoop(w *client.Cache) {
	defer h.wg.Done()
	seqs := make([]uint64, 2)
	for i := 0; ; i++ {
		select {
		case <-h.stop:
			return
		default:
		}
		fi := i % 2
		seqs[fi]++
		start := time.Now()
		err := w.Write(workFiles[fi], payload(workFiles[fi], seqs[fi]))
		if err != nil {
			// The write may or may not have been applied; either way it
			// was never acknowledged, so the floor stays put and the next
			// sequence number goes on top.
			h.ck.writeErrs.Add(1)
		} else {
			h.ck.acked(fi, seqs[fi], time.Since(start))
		}
		pause := 5 * time.Millisecond
		if err != nil {
			pause = 25 * time.Millisecond
		}
		t := time.NewTimer(pause)
		select {
		case <-h.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// readerLoop cycles a reader over every workload file. The acknowledged
// floor is snapshotted before the read begins: any acknowledgement the
// writer had already seen at that instant must be visible to this read,
// cached or not.
func (h *harness) readerLoop(c *client.Cache, idx int) {
	defer h.wg.Done()
	for i := idx; ; i++ {
		select {
		case <-h.stop:
			return
		default:
		}
		fi := i % len(workFiles)
		floor := h.ck.floors.Floor(fi)
		data, err := c.Read(workFiles[fi])
		pause := 2 * time.Millisecond
		if err != nil {
			h.ck.readErrs.Add(1)
			pause = 25 * time.Millisecond
		} else {
			h.ck.observeRead(fi, data, floor)
		}
		t := time.NewTimer(pause)
		select {
		case <-h.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// report folds the checker, client metrics and observer totals into the
// run's Report and applies the delay bounds.
func (h *harness) report() *Report {
	ck := h.ck
	rep := &Report{
		Scenario:    h.spec.name,
		Writes:      ck.writes.Load(),
		WriteErrors: ck.writeErrs.Load(),
		Reads:       ck.reads.Load(),
		ReadErrors:  ck.readErrs.Load(),
		StaleReads:  ck.stale.Load(),
	}
	for _, c := range h.clients {
		rep.Reconnects += c.Metrics().Reconnects
	}
	if h.shard != nil {
		rep.Reconnects += h.shard.reconnects.Load()
	}
	for _, ec := range h.obs.EventCounts() {
		switch ec.Type {
		case "fault-inject":
			rep.FaultEvents = ec.N
		case "expire":
			rep.Expiries = ec.N
		}
	}
	ck.mu.Lock()
	rep.MaxWriteDelay = ck.maxWriteDelay
	rep.Violations = append(rep.Violations, ck.violations...)
	ck.mu.Unlock()

	// Formula-2 bound, server side: one term for the longest blocking
	// lease or the post-restart recovery window, one more for an orphaned
	// attempt ahead in the FIFO queue, plus scheduling slack. Both are the
	// configured term ceiling (srvcore.Config.Ceiling, 4 terms: a reused
	// lease's stretch, and the window it forces), so each "term" here is
	// that ceiling. The ring may evict early events under heavy traffic,
	// which can only understate MaxApplyWait — never fabricate a
	// violation.
	ccfg := srvcore.Config{Term: h.o.Term}
	if h.spec.installed {
		ccfg.Class = h.classConfig()
	}
	rep.ApplyBound = 2*ccfg.Ceiling() + 2*time.Second
	if h.spec.installed {
		// A write demoting installed data first waits out the recorded
		// class-coverage horizon — at most one class term past the send
		// of the last broadcast.
		rep.ApplyBound += h.classConfig().InstalledTerm
	}
	for _, ev := range h.obs.Events(0) {
		if ev.Type == obs.EvWriteApply && ev.Wait > rep.MaxApplyWait {
			rep.MaxApplyWait = ev.Wait
		}
	}
	if rep.MaxApplyWait > rep.ApplyBound {
		rep.Violations = append(rep.Violations, Violation{"bounded-delay", fmt.Sprintf(
			"write clearance wait %v exceeded bound %v (term %v)",
			rep.MaxApplyWait, rep.ApplyBound, h.o.Term)})
	}
	// Client side, a hang detector rather than a tight bound: retries
	// multiply the per-attempt cost by the retry budget.
	hangBound := 3*h.o.WriteTimeout + 3*harnessRetryWait + h.o.Duration
	if rep.MaxWriteDelay > hangBound {
		rep.Violations = append(rep.Violations, Violation{"bounded-delay", fmt.Sprintf(
			"client-observed write delay %v exceeded hang bound %v",
			rep.MaxWriteDelay, hangBound)})
	}
	if rep.Writes == 0 {
		rep.Violations = append(rep.Violations, Violation{"liveness", "no write was ever acknowledged"})
	}
	if rep.Reads == 0 {
		rep.Violations = append(rep.Violations, Violation{"liveness", "no read ever completed"})
	}
	// Election-trace lens, replicated scenarios only: every mastership
	// this run established — the initial election included — must have
	// recorded a complete failover trace: the candidate round, the
	// catch-up sync, and the promotion, all under one TraceID. A missing
	// span means a failover path ran untraced, which is exactly the
	// regression this lens exists to catch. Sharded deployments elect
	// per group, so the same lens applies to them.
	if h.spec.replicated || h.spec.sharded {
		for _, tr := range h.tracer.Recent(0) {
			if tr.Op != "election" {
				continue
			}
			var prep, sync, prom bool
			for _, sp := range tr.Spans {
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
				rep.ElectionTraces++
			}
		}
		if rep.ElectionTraces == 0 {
			rep.Violations = append(rep.Violations, Violation{"election-trace",
				"no complete election trace (elect.prepare + failover.sync + failover.promote) was recorded"})
		}
	}
	return rep
}

// checker tracks the acknowledged floor of every workload file and
// collects invariant violations.
type checker struct {
	files  []string
	floors *FloorChecker // highest acknowledged sequence per file

	writes, writeErrs atomic.Int64
	reads, readErrs   atomic.Int64
	stale             atomic.Int64

	mu            sync.Mutex
	maxWriteDelay time.Duration
	violations    []Violation
}

func newChecker(files []string) *checker {
	return &checker{files: files, floors: NewFloorChecker(len(files))}
}

// maxViolations caps the violation list so a systematic failure doesn't
// flood the report; the counters still tell the full story.
const maxViolations = 32

func (ck *checker) violate(lens, format string, args ...any) {
	ck.mu.Lock()
	if len(ck.violations) < maxViolations {
		ck.violations = append(ck.violations, Violation{Lens: lens, Msg: fmt.Sprintf(format, args...)})
	}
	ck.mu.Unlock()
}

// acked advances a file's floor after the server acknowledged the
// write. Each file has a single writer, so the store is monotonic.
func (ck *checker) acked(fi int, seq uint64, delay time.Duration) {
	ck.writes.Add(1)
	ck.floors.Acked(fi, seq)
	ck.mu.Lock()
	if delay > ck.maxWriteDelay {
		ck.maxWriteDelay = delay
	}
	ck.mu.Unlock()
}

// observeRead checks one completed read against the floor snapshotted
// before it began.
func (ck *checker) observeRead(fi int, data []byte, floorBefore uint64) {
	ck.reads.Add(1)
	seq, err := parseSeq(data)
	if err != nil {
		ck.stale.Add(1)
		ck.violate("acked-floor", "unparseable content on %s: %q", ck.files[fi], truncate(data))
		return
	}
	if FloorViolated(seq, floorBefore) {
		ck.stale.Add(1)
		ck.violate("acked-floor", "stale read on %s: saw seq %d after write %d was acknowledged",
			ck.files[fi], seq, floorBefore)
	}
}

// seedContents is the store image for a (re)starting server: every
// workload file at its acknowledged floor.
func (ck *checker) seedContents() map[string][]byte {
	m := make(map[string][]byte, len(ck.files))
	for i, f := range ck.files {
		m[f] = payload(f, ck.floors.Floor(i))
	}
	return m
}

func payload(path string, seq uint64) []byte {
	return []byte(fmt.Sprintf("chaos %s %s seq=%d", path, strings.Repeat("x", 64), seq))
}

func parseSeq(data []byte) (uint64, error) {
	s := string(data)
	i := strings.LastIndex(s, "seq=")
	if i < 0 {
		return 0, fmt.Errorf("no sequence marker")
	}
	return strconv.ParseUint(strings.TrimSpace(s[i+len("seq="):]), 10, 64)
}

func truncate(data []byte) string {
	if len(data) > 48 {
		return string(data[:48]) + "…"
	}
	return string(data)
}

func seedFiles(st *vfs.Store, contents map[string][]byte) error {
	paths := make([]string, 0, len(contents))
	for p := range contents {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		a, err := st.Create(p, "root", vfs.DefaultPerm|vfs.WorldWrite)
		if err != nil {
			return err
		}
		if _, _, err := st.WriteFile(a.ID, contents[p]); err != nil {
			return err
		}
	}
	return nil
}
