package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// vmixStream is a closed, seeded stream of the benchmark's v_mix shape:
// n clients, each reading its own Zipf-1 set of private files and a set
// of shared ones half and half, and writing 4.4 % of the time, half to
// its private files and half to the shared files it owns (every file
// has one writer). With inst, 45 % of ops instead read one of the
// installed files under /inst (Zipf-1), as the benchmark's do; without,
// it is v_mix without its installed files.
type vmixStream struct {
	rng            *rand.Rand
	n              int
	inst           bool
	private, zInst []float64 // Zipf-1 CDFs over a client's private files and /inst
}

const (
	vmixShared  = 32
	vmixPrivate = 256
	vmixInst    = 64
)

func newVmixStream(seed int64, n int, inst bool) *vmixStream {
	return &vmixStream{rng: rand.New(rand.NewSource(seed)), n: n, inst: inst, private: zipfCDF(vmixPrivate), zInst: zipfCDF(vmixInst)}
}

func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// next draws client conn's next op: its path and whether it writes.
func (s *vmixStream) next(conn int) (path string, write bool) {
	u := s.rng.Float64()
	if s.inst && u < 0.45 {
		f := min(sort.SearchFloat64s(s.zInst, s.rng.Float64()), vmixInst-1)
		return fmt.Sprintf("/inst/f%d", f), false
	}
	write = u >= 0.956
	if s.rng.Intn(2) == 0 {
		f := s.rng.Intn(vmixShared)
		if write {
			f += conn - f%s.n
		}
		return fmt.Sprintf("/sh/f%d", f), write
	}
	f := min(sort.SearchFloat64s(s.private, s.rng.Float64()), vmixPrivate-1)
	return fmt.Sprintf("/pv%d/f%d", conn, f), write
}

// vmixRow is what ten terms of the v_mix-shaped stream, at two thousand
// ops a renewTerm, cost one server: frames per op both ways, TRead and
// approval round trips per op, writes deferred, and the most lease
// records held at once. The count is exact — the ops run one at a time on
// a simulated clock.
type vmixRow struct {
	frames, reads, approvals float64
	deferred                 int64
	peak                     int
}

func (r vmixRow) String() string {
	return fmt.Sprintf("%.4f frames/op, %.4f TRead, %.4f approval, %d deferred, %d peak leases", r.frames, r.reads, r.approvals, r.deferred, r.peak)
}

// runVmix runs the stream against a server built from cfg, and reports
// its row and the TExtend frames the clients sent.
func runVmix(t *testing.T, cfg server.Config) (row vmixRow, extends uint64) {
	t.Helper()
	const opEvery = renewTerm / 2000
	clk := clock.NewSim()
	cfg.Clock = clk
	srv, connect := startPipeServer(t, cfg)
	for _, d := range []string{"/sh", "/pv0", "/pv1"} {
		if _, err := srv.Store().Mkdir(d, "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < vmixShared; i++ {
		seedWritable(t, srv, fmt.Sprintf("/sh/f%d", i), "x")
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < vmixPrivate; i++ {
			seedWritable(t, srv, fmt.Sprintf("/pv%d/f%d", c, i), "x")
		}
	}
	var caches []*client.Cache
	for _, id := range []string{"c0", "c1"} {
		nc, _ := connect()
		c, err := client.NewFromConn(nc, client.Config{ID: id, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		caches = append(caches, c)
	}
	ws := srv.WireStats()
	before := frames(ws)
	s := newVmixStream(1, 2, false)
	ops := int(10 * renewTerm / opEvery)
	for i := 0; i < ops; i++ {
		c := i % 2
		path, write := s.next(c)
		if write {
			mustWrite(t, caches[c], path, "y")
		} else if _, err := caches[c].Read(path); err != nil {
			t.Fatal(err)
		}
		row.peak = max(row.peak, srv.LeaseCount())
		clk.Advance(opEvery)
	}
	per := func(n uint64) float64 { return float64(n) / float64(ops) }
	row.frames = per(frames(ws) - before)
	row.reads = per(ws.Frames(proto.TRead, "in"))
	row.approvals = per(ws.Frames(proto.TApprovalReq, "out"))
	row.deferred = srv.Metrics().WritesDeferred
	for _, c := range caches {
		extends += c.WireStats().Frames(proto.TExtend, "out")
	}
	return row, extends
}

// TestVmixFramesPerOp is a counted, not timed, guard on what the lease
// protocol costs the server, in frames per op of runVmix's stream. Any
// change to the count, up or down, is a change to the protocol's traffic:
// re-pin it on purpose. Renewing the leases that served hits on the
// requests the clients send anyway, handing a recalled file back to the
// holder that was reading it on the next reply, and renewing a reused,
// uncontended lease for core.ReuseFactor terms gives the pinned figure.
// At the fixed term it was fixedTerm; without the refills, noRefills;
// letting every lease lapse and fetching it again, the rule before
// renewals rode requests, onDemand.
func TestVmixFramesPerOp(t *testing.T) {
	const (
		pinned    = 0.2299
		fixedTerm = 0.2841
		noRefills = 0.3113
		onDemand  = 0.4406
	)
	row, extends := runVmix(t, server.Config{Term: renewTerm})
	if math.Abs(row.frames-pinned) > 0.00005 {
		t.Errorf("%.4f server frames per op, pinned %.4f (%.4f at the fixed term, %.4f without refills, %.4f without renewals riding requests)", row.frames, pinned, fixedTerm, noRefills, onDemand)
	}
	if extends != 0 {
		t.Errorf("%d TExtend frames; renewals should ride reads and writes", extends)
	}
}

// TestTermTable counts runVmix's stream at fixed terms — every lease
// granted for the policy term, the paper's rule — and at the shipped one,
// where a reused, uncontended lease renews for core.ReuseFactor terms.
// Past 10 s a longer fixed term leaves the approvals flat and only cuts
// re-fetches after a lapse; the shipped rule takes most of that cut and
// keeps the 10 s fresh grant. Exact: re-pin a row only for an intended
// traffic change.
func TestTermTable(t *testing.T) {
	fixed := func(term time.Duration) server.Config {
		return server.FixedTermConfig(server.Config{Term: term})
	}
	rows := []struct {
		name string
		cfg  server.Config
		want string
	}{
		{"fixed 0", fixed(0), "2.0865 frames/op, 0.9567 TRead, 0.0000 approval, 0 deferred, 0 peak leases"},
		{"fixed 1s", fixed(time.Second), "0.7330 frames/op, 0.3050 TRead, 0.0170 approval, 340 deferred, 565 peak leases"},
		{"fixed 10s", fixed(renewTerm), "0.2841 frames/op, 0.0775 TRead, 0.0202 approval, 403 deferred, 572 peak leases"},
		{"fixed 100s", fixed(10 * renewTerm), "0.1971 frames/op, 0.0341 TRead, 0.0200 approval, 400 deferred, 576 peak leases"},
		{"shipped 10s", server.Config{Term: renewTerm}, "0.2299 frames/op, 0.0505 TRead, 0.0200 approval, 401 deferred, 574 peak leases"},
	}
	got := make(map[string]vmixRow)
	for _, r := range rows {
		row, _ := runVmix(t, r.cfg)
		got[r.name] = row
		if row.String() != r.want {
			t.Errorf("%s: %v, pinned %s", r.name, row, r.want)
		}
	}
	if got["shipped 10s"].frames >= got["fixed 10s"].frames {
		t.Errorf("the shipped rule costs %.4f frames/op, no fewer than the fixed 10 s term's %.4f", got["shipped 10s"].frames, got["fixed 10s"].frames)
	}
}

// idleRow is what an idle holder costs one server: the frames both ways
// while it sits idle, the TExtend frames among them, and the leases still
// live at the end.
type idleRow struct {
	frames, extends uint64
	live            int
}

func (r idleRow) String() string {
	return fmt.Sprintf("%d frames, %d TExtend, %d live leases", r.frames, r.extends, r.live)
}

// runIdle has one client read n private files and then sit idle for ten
// terms, with the renewal loop armed every autoExtend (zero: none). The
// term is 12 s so that every timer the loop arms falls on a step of the
// simulated clock, and each step waits for the loop to park on its next
// timer: the count is exact.
func runIdle(t *testing.T, n int, autoExtend time.Duration) idleRow {
	t.Helper()
	const term = 12 * time.Second
	clk := clock.NewSim()
	srv, connect := startPipeServer(t, server.Config{Term: term, Clock: clk})
	if _, err := srv.Store().Mkdir("/pv", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		seedWritable(t, srv, fmt.Sprintf("/pv/f%d", i), "x")
	}
	nc, _ := connect()
	c, err := client.NewFromConn(nc, client.Config{ID: "idle", Clock: clk, AutoExtend: autoExtend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	timers := 0
	if autoExtend > 0 {
		timers = 1
	}
	park := func() {
		for start := time.Now(); clk.PendingTimers() != timers; time.Sleep(50 * time.Microsecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%d timers armed, want %d", clk.PendingTimers(), timers)
			}
		}
	}
	for i := 0; i < n; i++ {
		mustReadAs(t, c, fmt.Sprintf("/pv/f%d", i), "x")
	}
	ws := srv.WireStats()
	before, extendsBefore := frames(ws), ws.Frames(proto.TExtend, "in")
	const step = term / 24
	for i := 0; i < 10*24; i++ {
		park()
		clk.Advance(step)
	}
	park()
	return idleRow{
		frames:  frames(ws) - before,
		extends: ws.Frames(proto.TExtend, "in") - extendsBefore,
		live:    len(srv.Snapshot()),
	}
}

// TestIdleHolderFrames counts what the optional renewal loop
// (client.Config.AutoExtend) costs and buys an idle holder of 32 private
// files over ten terms: with it, five batched TExtend round trips keep
// all 34 leases live (the two directories' leases, already stretched to
// core.ReuseFactor terms by the reads, renew out of phase with the
// files'); without it, the idle span costs nothing and every lease
// lapses. Exact: re-pin a row only for an intended traffic change.
func TestIdleHolderFrames(t *testing.T) {
	const n = 32
	for _, r := range []struct {
		name       string
		autoExtend time.Duration
		want       string
	}{
		{"loop every term/3", 4 * time.Second, "10 frames, 5 TExtend, 34 live leases"},
		{"no loop", 0, "0 frames, 0 TExtend, 0 live leases"},
	} {
		if got := runIdle(t, n, r.autoExtend); got.String() != r.want {
			t.Errorf("%s: %v, pinned %s", r.name, got, r.want)
		}
	}
}

// classRow is what ten terms of the v_mix-shaped stream with installed
// files cost one server: frames per op both ways, and the most lease
// records held at once.
type classRow struct {
	frames float64
	peak   int
}

func (r classRow) String() string {
	return fmt.Sprintf("%.4f frames/op, %d peak leases", r.frames, r.peak)
}

// readWatch marks a client connection whose reader is blocked in Read:
// everything the reader took before has been handled.
type readWatch struct {
	net.Conn
	reading atomic.Bool
}

func (c *readWatch) Read(b []byte) (int, error) {
	c.reading.Store(true)
	defer c.reading.Store(false)
	return c.Conn.Read(b)
}

// classShape is one configuration of runClass: clients run the stream,
// idle more each read the classIdleReads most-read installed files before
// the count starts and then nothing; class sets the installed class as
// the benchmark sets it; every client's renewal loop runs every
// autoExtend (zero: none); and with classWrite, the stream's middle op is
// a write to the most-read installed file instead.
type classShape struct {
	clients, idle     int
	class, classWrite bool
	autoExtend        time.Duration
}

const classIdleReads = 8

// runClass runs the stream with installed files for a classShape. The
// term is 12 s and ops come every 5 ms, so every timer the loop and the
// broadcast arm falls on a step of the simulated clock; after each op and
// each step the run waits until the deployment is quiet — every timer
// armed, every broadcast round and every other frame read and handled, no
// class snapshot waiting for its refetch — twice running with no frame in
// between: the count is exact. The class write demotes its file from the
// class and waits out the class horizon while the stream runs on; once it
// has asked for approval or applied, the run waits for it to end.
func runClass(t *testing.T, shape classShape) classRow {
	t.Helper()
	const (
		term    = 12 * time.Second
		opEvery = 5 * time.Millisecond
	)
	n, class, autoExtend := shape.clients, shape.class, shape.autoExtend
	clk := clock.NewSim()
	cfg := server.Config{Term: term, Clock: clk}
	if class {
		// The observer counts broadcast rounds: the server hands each
		// round's frames to its connections' senders before it arms the
		// next, and counts them on the wire only as those send.
		cfg.Class = server.ClassConfig{InstalledDirs: []string{"/inst"}, InstalledTerm: term, BroadcastEvery: term / 4}
		cfg.Obs = obs.New(obs.Config{})
	}
	srv, connect := startPipeServer(t, cfg)
	seedDir := func(d string, files int) {
		if _, err := srv.Store().Mkdir(d, "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			seedWritable(t, srv, fmt.Sprintf("%s/f%d", d, i), "x")
		}
	}
	seedDir("/inst", vmixInst)
	seedDir("/sh", vmixShared)
	for c := 0; c < n; c++ {
		seedDir(fmt.Sprintf("/pv%d", c), vmixPrivate)
	}
	caches := make([]*client.Cache, n+shape.idle)
	conns := make([]*readWatch, len(caches))
	for i := range caches {
		nc, _ := connect()
		conns[i] = &readWatch{Conn: nc}
		c, err := client.NewFromConn(conns[i], client.Config{ID: fmt.Sprintf("c%d", i), Clock: clk, AutoExtend: autoExtend})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		caches[i] = c
	}
	for _, c := range caches[n:] {
		for f := 0; f < classIdleReads; f++ {
			mustReadAs(t, c, fmt.Sprintf("/inst/f%d", f), "x")
		}
	}
	timers := 0
	if class {
		timers++
	}
	if autoExtend > 0 {
		timers += len(caches)
	}
	// writing is set while the class write is out: its wait is one more
	// timer.
	var writing atomic.Bool
	total := func(ws *proto.WireStats) (in, out uint64) { // the client counts no hello
		for _, row := range ws.Snapshot() {
			switch {
			case row.Type == proto.THello || row.Type == proto.THelloAck:
			case row.Dir == "in":
				in += row.Frames
			default:
				out += row.Frames
			}
		}
		return in, out
	}
	quiet := func() (bool, uint64) {
		want := timers
		if writing.Load() {
			want++
		}
		if clk.PendingTimers() != want {
			return false, 0
		}
		var rounds uint64
		if class {
			rounds = uint64(cfg.Obs.EventCounts()[obs.EvBroadcastExt].N)
		}
		var in, out uint64
		for i, c := range caches {
			_, _, stale := c.InstalledClass()
			if stale && autoExtend > 0 || !conns[i].reading.Load() || c.WireStats().Frames(proto.TBroadcastExt, "in") != rounds {
				return false, 0
			}
			cin, cout := total(c.WireStats())
			in, out = in+cin, out+cout
		}
		sin, sout := total(srv.WireStats())
		return in == sout && out == sin, in + out
	}
	settle := func() {
		var last uint64
		for start, seen := time.Now(), false; ; runtime.Gosched() {
			ok, frames := quiet()
			if ok && seen && frames == last {
				return
			}
			seen, last = ok, frames
			if time.Since(start) > 5*time.Second {
				t.Fatalf("not quiet after 5 s: %d timers armed, want %d", clk.PendingTimers(), timers)
			}
		}
	}
	// startClassWrite writes /inst/f0 from c in the background. The write
	// is past its horizon wait once it has asked a holder for approval or
	// applied; the run then waits for it to end.
	f0, err := srv.Store().Lookup("/inst/f0")
	if err != nil {
		t.Fatal(err)
	}
	var began time.Time
	cleared := func() bool {
		for _, ev := range cfg.Obs.Events(4096) {
			if (ev.Type == obs.EvWriteDefer || ev.Type == obs.EvWriteApply) && ev.Datum == (vfs.Datum{Kind: vfs.FileData, Node: f0.ID}) {
				return true
			}
		}
		return false
	}
	startClassWrite := func(c *client.Cache) chan error {
		done := make(chan error, 1)
		began = clk.Now()
		writing.Store(true)
		go func() {
			err := c.Write("/inst/f0", []byte("y"))
			writing.Store(false)
			done <- err
		}()
		return done
	}
	settle()
	ws := srv.WireStats()
	before := frames(ws)
	s := newVmixStream(1, n, true)
	ops := int(10 * term / opEvery)
	var row classRow
	var done chan error
	for i := 0; i < ops; i++ {
		c := i % n
		path, write := s.next(c)
		switch {
		case shape.classWrite && i == ops/2:
			done = startClassWrite(caches[c])
		case write:
			mustWrite(t, caches[c], path, "y")
		default:
			if _, err := caches[c].Read(path); err != nil {
				t.Fatal(err)
			}
		}
		settle()
		if done != nil && cleared() {
			if err := <-done; err != nil {
				t.Fatalf("the class write: %v", err)
			}
			if cfg.Obs.EventCounts()[obs.EvClassDemote].N == 0 || !clk.Now().After(began) {
				t.Fatal("the class write neither demoted an installed file nor waited for the class horizon")
			}
			done = nil
			settle()
		}
		row.peak = max(row.peak, srv.LeaseCount())
		clk.Advance(opEvery)
		settle()
	}
	if done != nil {
		t.Fatal("the class write never cleared")
	}
	row.frames = float64(frames(ws)-before) / float64(ops)
	return row
}

// TestClassTable counts what the §4.3 installed class and the renewal
// loop (client.Config.AutoExtend) cost one server on the v_mix-shaped
// stream with the benchmark's installed files, at 2 and 8 clients: with
// neither; with the class and a loop that only fetches its snapshot (an
// hour-long period, the benchmark's setting); with the loop at term/3 and
// no class; and with both. The class saves the snapshot-only rows 2-3 %
// of the frames and no lease records; on top of the loop at term/3 it
// adds frames. Two more rows take the benchmark's setting. With 30 idle
// clients, each of which read 8 installed files before the count, every
// broadcast goes to 32 connections: the idle clients cost 0.065 frames
// per op (without the class an idle client costs nothing). One write to
// an installed file demotes it from the class and waits out the class
// horizon while the stream runs on; it comes out under the row without
// it, because the demotion bumps the class generation, and the round each
// client's loop then runs to refetch the snapshot also renews every lease
// that client holds, which saves more reads than the write costs. Exact:
// re-pin a row only for an intended traffic change.
func TestClassTable(t *testing.T) {
	const loop = 4 * time.Second // term/3
	for _, r := range []struct {
		name  string
		shape classShape
		want  string
	}{
		{"2 clients, neither", classShape{clients: 2}, "0.2264 frames/op, 679 peak leases"},
		{"2 clients, class, snapshot-only loop", classShape{clients: 2, class: true, autoExtend: time.Hour}, "0.2213 frames/op, 680 peak leases"},
		{"2 clients, loop", classShape{clients: 2, autoExtend: loop}, "0.2196 frames/op, 688 peak leases"},
		{"2 clients, class and loop", classShape{clients: 2, class: true, autoExtend: loop}, "0.2238 frames/op, 688 peak leases"},
		{"8 clients, neither", classShape{clients: 8}, "0.6628 frames/op, 2075 peak leases"},
		{"8 clients, class, snapshot-only loop", classShape{clients: 8, class: true, autoExtend: time.Hour}, "0.6459 frames/op, 2077 peak leases"},
		{"8 clients, loop", classShape{clients: 8, autoExtend: loop}, "0.6932 frames/op, 2113 peak leases"},
		{"8 clients, class and loop", classShape{clients: 8, class: true, autoExtend: loop}, "0.7031 frames/op, 2113 peak leases"},
		{"2 clients and 30 idle, class, snapshot-only loop", classShape{clients: 2, idle: 30, class: true, autoExtend: time.Hour}, "0.2863 frames/op, 980 peak leases"},
		{"2 clients, class write, snapshot-only loop", classShape{clients: 2, class: true, classWrite: true, autoExtend: time.Hour}, "0.2132 frames/op, 685 peak leases"},
	} {
		if got := runClass(t, r.shape); got.String() != r.want {
			t.Errorf("%s: %v, pinned %s", r.name, got, r.want)
		}
	}
}

// TestRefillFramesPerOp counts a recalled lease coming back, exactly:
// the holder h reads /sh/f, the writer w writes it, and h's next request
// (a read of /sh/g) carries /sh/f back at the new version, so h's re-read
// costs the server nothing — a fetch, 2 frames, without the refill. A
// file that came back and was not read since asks for nothing: w's next
// write still costs the approval round trip, and h's read after it
// fetches. A re-read of the recalled file itself does not end the chain.
func TestRefillFramesPerOp(t *testing.T) {
	srv, _, dial, _ := renewFixture(t)
	if _, err := srv.Store().Mkdir("/sh", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/sh/f", "/sh/g", "/sh/h", "/sh/i", "/sh/j"} {
		seedWritable(t, srv, p, "x")
	}
	h, w := dial("h"), dial("w")
	if _, err := w.Lookup("/sh/f"); err != nil { // so w's writes go out by node
		t.Fatal(err)
	}
	cost := func(what string, want uint64, op func()) {
		t.Helper()
		before := frames(srv.WireStats())
		op()
		if got := frames(srv.WireStats()) - before; got != want {
			t.Errorf("%s: %d server frames, want %d", what, got, want)
		}
	}
	mustReadAs(t, h, "/sh/f", "x")
	cost("a write h was reading", 4, func() { mustWrite(t, w, "/sh/f", "y") })
	cost("h's next request", 2, func() { mustReadAs(t, h, "/sh/g", "x") })
	cost("h's re-read of the refilled file", 0, func() { mustReadAs(t, h, "/sh/f", "y") })

	mustWrite(t, w, "/sh/f", "z")  // h hit /sh/f: it asks again,
	mustReadAs(t, h, "/sh/h", "x") // and /sh/f comes back on this read,
	cost("a write on a refilled file h has not read", 4, func() { mustWrite(t, w, "/sh/f", "zz") })
	mustReadAs(t, h, "/sh/i", "x") // so nothing rides this one
	cost("h's read after it", 2, func() { mustReadAs(t, h, "/sh/f", "zz") })

	// A re-read of the recalled file itself is a fetch, and its reply
	// carries the file once, not again as a refill: the fetched copy was
	// read, so the next callback still asks, and the file comes back.
	mustWrite(t, w, "/sh/f", "a")
	cost("h's re-read right after the write", 2, func() { mustReadAs(t, h, "/sh/f", "a") })
	mustWrite(t, w, "/sh/f", "b")
	mustReadAs(t, h, "/sh/j", "x")
	cost("h's re-read of the file that came back", 0, func() { mustReadAs(t, h, "/sh/f", "b") })
}

// TestRenameFramesPerOp counts what a rename costs the servers of a
// two-group deployment, in frames summed over both and counted as
// TestVmixFramesPerOp counts them. A rename within a group is its
// request and reply; one across groups adds the move between the masters
// and its reply. Hellos and accepted connections are counted apart: once
// a warm-up read has opened the client's session and a warm-up
// cross-shard rename the source master's mover session, no rename opens a
// connection or sends a hello — every move from a source rides its one
// session to the destination group.
func TestRenameFramesPerOp(t *testing.T) {
	clk := clock.NewSim()
	srvs, ring, lns := shardGroups(t, clk, nil, nil)
	warm, warmMove := ownedBy(t, ring, 0, "/d/w%d"), ownedBy(t, ring, 0, "/d/m%d")
	local, cross := ownedBy(t, ring, 0, "/d/l%d"), ownedBy(t, ring, 0, "/d/x%d")
	cross2 := ownedBy(t, ring, 0, "/d/x%d", cross)
	crossTo := ownedBy(t, ring, 1, "/d/x%d")
	for _, p := range []string{warm, warmMove, local, cross, cross2} {
		seedWritable(t, srvs[0], p, "x")
	}
	r := router(t, ring, clk, "c1")
	if _, err := r.Read(warm); err != nil {
		t.Fatalf("warm-up read: %v", err)
	}
	if err := r.Rename(warmMove, ownedBy(t, ring, 1, "/d/m%d")); err != nil {
		t.Fatalf("warm-up cross-shard rename: %v", err)
	}
	sum := func(count func(*proto.WireStats) uint64) uint64 {
		return count(srvs[0].WireStats()) + count(srvs[1].WireStats())
	}
	for _, row := range []struct {
		name, from, to string
		want           uint64
	}{
		{"local", local, ownedBy(t, ring, 0, "/d/l%d", local), 2},
		{"cross-shard", cross, crossTo, 4},
		{"second cross-shard", cross2, ownedBy(t, ring, 1, "/d/x%d", crossTo), 4},
	} {
		before, beforeHellos := sum(frames), sum(hellos)
		beforeAccepts := lns[0].accepted.Load() + lns[1].accepted.Load()
		if err := r.Rename(row.from, row.to); err != nil {
			t.Fatalf("%s rename: %v", row.name, err)
		}
		if got := sum(frames) - before; got != row.want {
			t.Errorf("%s rename: %d server frames, want %d", row.name, got, row.want)
		}
		if got := sum(hellos) - beforeHellos; got != 0 {
			t.Errorf("%s rename: %d hello frames, want 0", row.name, got)
		}
		if got := lns[0].accepted.Load() + lns[1].accepted.Load() - beforeAccepts; got != 0 {
			t.Errorf("%s rename: %d connections accepted, want 0", row.name, got)
		}
	}
}

// frames totals a server's frames both ways, the hellos left out.
func frames(ws *proto.WireStats) uint64 {
	var n uint64
	for _, row := range ws.Snapshot() {
		if row.Type != proto.THello && row.Type != proto.THelloAck {
			n += row.Frames
		}
	}
	return n
}

// hellos totals the hellos a server took and answered: THello in and
// THelloAck out.
func hellos(ws *proto.WireStats) uint64 {
	var n uint64
	for _, row := range ws.Snapshot() {
		if row.Type == proto.THello && row.Dir == "in" || row.Type == proto.THelloAck && row.Dir == "out" {
			n += row.Frames
		}
	}
	return n
}
