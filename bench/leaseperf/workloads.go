package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"leases/bench/hrtimer"
	"leases/bench/topo"
	"leases/internal/client"
	"leases/internal/server"
)

// workload is one of the benchmark's traffic mixes: a deployment, the
// files it is seeded with and the phases its two connections run.
type workload struct {
	name string
	why  string
	// build sizes the workload for a run; everything it returns is a
	// function of the run's seed and size.
	build func(p params) *plan
}

// plan is a workload sized for one run.
type plan struct {
	kind  topo.Kind
	class server.ClassConfig
	// autoExtend is the clients' Config.AutoExtend; zero leaves lease
	// extension on demand, the §3.1 model.
	autoExtend time.Duration
	files      *fileSet
	// probeIDs lists the files the first reads and writes of
	// connection 0's stream touch, in order, for the layer probes that
	// replay the workload's own stream.
	probeIDs func(seed int64) (reads, writes []int)
	// isInst reports whether a file is in an installed directory; nil
	// when the workload has none.
	isInst func(file int) bool
	// first is the file each connection reads as its first op, which
	// ends set-up: one of its own, so the lease it takes stands in
	// nobody's way.
	first [numConns]int
	// openLoop marks a workload whose ops are due on a schedule.
	openLoop bool
	// prepare runs once the deployment is up and the connections are
	// dialed, before any op.
	prepare func(e *env)
	phases  []phase
	// verify reads back what the run wrote, after the last phase, and
	// fails the run on any difference.
	verify func(e *env)
}

// phase is one stretch of a workload in which every connection does one
// thing. body issues ops on c until the deadline has passed.
type phase struct {
	name string
	body func(e *env, c *conn, until time.Time)
	// warmCap, when positive, is how long this phase's warm-up may run,
	// in place of its share of the run's warm-up; the body ends its own
	// warm-up as soon as it is warm.
	warmCap time.Duration
}

var workloads = []workload{
	{
		name: "v_mix",
		why: "open loop at 5% utilisation with the paper's read:write mix over installed, shared and private files, " +
			"so leases, approvals and the class broadcast do the work and the transport almost none",
		build: buildVmix,
	},
	{
		name: "single_sat",
		why: "closed loop saturating one server, cold reads then unshared overwrites, " +
			"so codec, coalescer, dispatch, grant and store are all on the blocking path",
		build: buildSingleSat,
	},
	{
		name: "repl_write",
		why: "3 replicas with 1 ms injected between peers, 2x4 writes in flight and a slow stream of miss reads: " +
			"delay-bound, so only round trips, overlap and batching move it and CPU-path work should not",
		build: buildReplWrite,
	},
	{
		name: "shard_mix",
		why: "2 shard groups through the ring-routed client: single_sat's reads and writes plus local and " +
			"cross-shard renames, so router, ring lookup, owner check and the rename 2PC do work nothing else does",
		build: buildShardMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seqs hands out each file's next write sequence. Every file has one
// designated writing connection, so next needs no lock of its own; mu
// orders that connection's ops on the file in the open loop, where they
// run concurrently: one write at a time, and no read of the file while
// its own write is in flight. (A client that has a read and a write of
// one file in flight caches whichever reply arrives last, so a late
// read reply can bury the newer write — see README, findings.)
type seqs struct {
	mu   []sync.RWMutex
	next []uint64
}

func newSeqs(files int) *seqs {
	return &seqs{mu: make([]sync.RWMutex, files), next: make([]uint64, files)}
}

// writer reports which connection writes v_mix file id: shared files
// alternate, private files belong to their connection.
func (f *vmixFiles) writer(id int) int {
	switch {
	case id < f.sh:
		return -1 // installed files are never written
	case id < f.pv[0]:
		return (id - f.sh) % numConns
	case id < f.pv[1]:
		return 0
	}
	return 1
}

// ---- v_mix ----------------------------------------------------------

func buildVmix(p params) *plan {
	f := newVmixFiles()
	sq := newSeqs(len(f.paths))
	pl := &plan{
		kind: topo.Single,
		class: server.ClassConfig{
			InstalledDirs:  []string{"/inst"},
			InstalledTerm:  leaseTerm,
			BroadcastEvery: leaseTerm / 4,
		},
		// A client fetches the installed-class snapshot only from its
		// renewal loop, so the loop must run; a period this long keeps
		// it from renewing anything on its own. It wakes when a class
		// broadcast shows a new generation — while /inst fills during
		// warm-up — refetches the snapshot, and sleeps again: per-file
		// extension stays on demand, as §3.1 models it.
		autoExtend: time.Hour,
		files:      &f.fileSet,
		isInst:     func(file int) bool { return file < f.sh },
		first:      f.pv,
		openLoop:   true,
	}
	pl.probeIDs = f.probeIDs
	// Set-up ends when the installed class stands: every /inst file read
	// once, by either connection, which installs it at the server, and
	// the snapshot of all of them fetched by both clients, which takes a
	// broadcast or two to prompt. The window then measures the class at
	// work, not forming — and set-up, a broadcast period long, is a
	// figure that repeats.
	pl.prepare = func(e *env) {
		for id := f.inst; id < f.sh; id++ {
			e.read(e.conns[id%numConns], id, f.paths[id], time.Time{})
		}
		deadline := time.Now().Add(10 * leaseTerm)
		for _, c := range e.conns {
			for members := 0; members != vmixClassMembers; _, members, _ = c.cache.InstalledClass() {
				if time.Now().After(deadline) {
					e.fail(fmt.Errorf("installed class has %d members after %v, want %d", members, 10*leaseTerm, vmixClassMembers))
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	pl.phases = []phase{{name: "mix", body: func(e *env, c *conn, until time.Time) {
		// The warm-up and the window draw different streams.
		seed, start := p.seed, time.Now()
		if e.measuring.Load() {
			seed += 1_000_000_007
		}
		ops := f.stream(seed, c.id, until.Sub(start))
		if e.measuring.Load() {
			e.offered.Add(int64(len(ops)))
		}
		// The schedule is kept to the microsecond by a high-resolution
		// timer; each op then runs on its own goroutine, because the
		// client resolves a path with a blocking call and one op must
		// not make the next one late.
		timer, err := hrtimer.New()
		if err != nil {
			e.fail(err)
			return
		}
		defer timer.Close()
		var wg sync.WaitGroup
		for _, o := range ops {
			due := start.Add(o.due)
			if err := timer.SleepUntil(due); err != nil {
				e.fail(err)
				break
			}
			wg.Add(1)
			go func(o op) {
				defer wg.Done()
				if o.kind == opRead {
					if f.writer(o.file) == c.id {
						sq.mu[o.file].RLock()
						defer sq.mu[o.file].RUnlock()
					}
					e.read(c, o.file, f.paths[o.file], due)
					return
				}
				sq.mu[o.file].Lock()
				defer sq.mu[o.file].Unlock()
				sq.next[o.file]++
				e.write(c, o.class, o.file, sq.next[o.file], f.paths[o.file], make([]byte, payloadSize), due)
			}(o)
		}
		wg.Wait()
	}}}
	pl.verify = func(e *env) {
		for id := f.sh; id < len(f.paths); id++ {
			e.verifyFile(e.conns[0], id, f.paths[id], sq.next[id])
		}
	}
	return pl
}

// ---- closed loops ---------------------------------------------------

// coldRead is the read phase of the closed-loop workloads: each
// connection walks its seeded permutation of its half of the cold set,
// one read at a time. A cycle outlasts the lease term, so every read is
// an expired lease: a lookup and a read at the server, a grant and a
// heap push. The warm-up is one whole cycle. A client keeps every file
// it has read, so until then its cache — in this process — is still
// growing, and the window would measure the allocator growing the heap:
// read rates a third lower and twice as far apart from run to run.
func coldRead(f *satFiles, seed int64) phase {
	var order [numConns][]int
	var pos [numConns]int
	for c := range order {
		order[c] = f.coldOrder(seed, c)
	}
	return phase{name: "read", warmCap: 10 * time.Second, body: func(e *env, c *conn, until time.Time) {
		ids := order[c.id]
		for time.Now().Before(until) {
			if pos[c.id] >= len(ids) && !e.measuring.Load() {
				return // warm: every file has been read once
			}
			id := ids[pos[c.id]%len(ids)]
			pos[c.id]++
			e.read(c, id, f.paths[id], time.Time{})
		}
	}}
}

// overwrite is the write phase: each connection overwrites its own
// files round robin, one write at a time — never shared, so never
// deferred.
func overwrite(f *satFiles, sq *seqs) phase {
	var pos [numConns]int
	var bufs [numConns][]byte
	for c := range bufs {
		bufs[c] = make([]byte, payloadSize)
	}
	return phase{name: "write", body: func(e *env, c *conn, until time.Time) {
		for time.Now().Before(until) {
			id := f.w[c.id] + pos[c.id]%f.nW
			pos[c.id]++
			sq.next[id]++
			e.write(c, clsWrite, id, sq.next[id], f.paths[id], bufs[c.id], time.Time{})
		}
	}}
}

// verifyWritten reads every overwritten file back and checks it holds
// the last write.
func verifyWritten(f *satFiles, sq *seqs) func(e *env) {
	return func(e *env) {
		for c := 0; c < numConns; c++ {
			for i := 0; i < f.nW; i++ {
				id := f.w[c] + i
				e.verifyFile(e.conns[c], id, f.paths[id], sq.next[id])
			}
		}
	}
}

// verifyFile reads file at path and fails the run unless it holds
// exactly sequence want.
func (e *env) verifyFile(c *conn, file int, path string, want uint64) {
	var data []byte
	var err error
	if c.router != nil {
		data, err = c.router.Read(path)
	} else {
		data, err = c.cache.Read(path)
	}
	e.attempted.Add(1)
	if err != nil {
		e.fail(fmt.Errorf("verify %s: %w", path, err))
		return
	}
	gotFile, seq, ok := parsePayload(data)
	if !ok || gotFile != file || seq != want {
		e.fail(fmt.Errorf("verify %s: holds file %d seq %d (valid %v), want file %d seq %d",
			path, gotFile, seq, ok, file, want))
	}
}

func buildSingleSat(p params) *plan {
	f := newSatFiles(coldFiles/p.sizeDiv, writeFiles, 0, 0)
	sq := newSeqs(len(f.paths))
	pl := &plan{
		kind:  topo.Single,
		files: &f.fileSet,
		first: f.w,
		// Writes first: the scan leaves the clients' caches holding the
		// whole cold set, and with it a heap the collector takes three
		// times as long to mark.
		phases: []phase{overwrite(f, sq), coldRead(f, p.seed)},
		verify: verifyWritten(f, sq),
	}
	pl.probeIDs = f.probeIDs
	return pl
}

// replWindow is how many writes each connection keeps in flight.
const replWindow = 4

// pacedReadEvery spaces the miss reads repl_write issues beside its
// writes: each connection's pacedFiles files are read round robin, so a
// file is read again only after pacedFiles × pacedReadEvery, which
// outlasts the lease term and makes every one of them a miss.
const pacedReadEvery = 5 * time.Millisecond

// A refused write is reissued every refusalBackoff for up to a second,
// half the election term: a fence that outlasts that is an election,
// and the run is void anyway.
const (
	refusalBackoff = 5 * time.Millisecond
	refusalRetries = 200
)

func buildReplWrite(p params) *plan {
	// The replicas hold these files only: a promotion ships a replica's
	// whole store to the new master in one frame, which bounds the
	// store to proto.MaxFrame.
	f := newSatFiles(0, writeFiles, pacedFiles, 0)
	sq := newSeqs(len(f.paths))
	var pos, rpos [numConns]int
	type slot struct {
		wc     *client.WriteCall
		file   int
		seq    uint64
		issued time.Time
		sp     opSpan
		buf    []byte
	}
	var slots [numConns][replWindow]slot
	for c := range slots {
		for i := range slots[c] {
			slots[c][i].buf = make([]byte, payloadSize)
		}
	}
	finish := func(e *env, c *conn, s *slot) {
		err := s.wc.Wait()
		// Peers fence replication frames whose ballot is older than one
		// they have promised since. They promise a newer one whenever
		// the master renews its lease — two round trips, 4ms on these
		// links, once a second — and when a losing candidate of the
		// first election outbid it, which lasts until the first renewal.
		// A write caught by the fence is refused, unapplied. That is the
		// program's behaviour, not the workload's: the refusal is
		// counted and the write reissued, its latency running on.
		for try := 0; try < refusalRetries && errors.Is(err, client.ErrRemote); try++ {
			e.refused.Add(1)
			time.Sleep(refusalBackoff)
			err = c.cache.Write(f.paths[s.file], s.buf)
		}
		done := time.Now()
		s.sp.end(done)
		s.wc = nil
		if err != nil {
			e.fail(fmt.Errorf("write %s: %w", f.paths[s.file], err))
			return
		}
		e.or.ack(s.file, s.seq)
		e.record(clsWrite, s.issued, s.issued, done)
	}
	write := phase{name: "write", body: func(e *env, c *conn, until time.Time) {
		nextRead := time.Now()
		for now := time.Now(); now.Before(until); now = time.Now() {
			s := &slots[c.id][pos[c.id]%replWindow]
			if s.wc != nil {
				finish(e, c, s)
			}
			s.file = f.w[c.id] + pos[c.id]%f.nW
			pos[c.id]++
			sq.next[s.file]++
			s.seq = sq.next[s.file]
			e.pl.fill(s.buf, s.file, s.seq)
			e.attempted.Add(1)
			s.issued = time.Now()
			s.sp = e.spans.begin(c, "write", s.issued, s.issued)
			s.wc = c.cache.StartWrite(f.paths[s.file], s.buf)
			if !now.Before(nextRead) {
				id := f.r[c.id] + rpos[c.id]%f.nR
				rpos[c.id]++
				e.read(c, id, f.paths[id], time.Time{})
				nextRead = nextRead.Add(pacedReadEvery)
			}
		}
		for i := range slots[c.id] {
			if s := &slots[c.id][i]; s.wc != nil {
				finish(e, c, s)
			}
		}
	}}
	pl := &plan{
		kind:   topo.Repl3,
		files:  &f.fileSet,
		first:  f.w,
		phases: []phase{write},
		verify: verifyWritten(f, sq),
	}
	pl.probeIDs = f.probeIDs
	return pl
}

func buildShardMix(p params) *plan {
	f := newSatFiles(coldFiles/p.sizeDiv, writeFiles, 0, renameFiles)
	sq := newSeqs(len(f.paths))
	var plans [numConns]*renamePlan
	var renamed [numConns]int
	rename := phase{name: "rename", body: func(e *env, c *conn, until time.Time) {
		for time.Now().Before(until) {
			_, from, to, cross := plans[c.id].next(renamed[c.id])
			renamed[c.id]++
			e.rename(c, from, to, cross)
		}
	}}
	written := verifyWritten(f, sq)
	pl := &plan{
		kind:  topo.Shard2,
		files: &f.fileSet,
		first: f.w,
		prepare: func(e *env) {
			for c := range plans {
				plans[c] = newRenamePlan(f, c, e.topo.Ring)
			}
		},
		// The scan last, as in single_sat.
		phases: []phase{rename, overwrite(f, sq), coldRead(f, p.seed)},
		verify: func(e *env) {
			written(e)
			for c, rp := range plans {
				for i, name := range rp.at {
					e.verifyFile(e.conns[c], f.mv[c]+i, name, 0)
				}
			}
		},
	}
	pl.probeIDs = f.probeIDs
	return pl
}
