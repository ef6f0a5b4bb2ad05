package check

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"leases/internal/clock"
	"leases/internal/netsim"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/sim"
	"leases/internal/vfs"
)

// Wire kinds, mirroring the trace simulator's message taxonomy so
// fabric metrics and fault filters speak one vocabulary.
const (
	kindExtend      = "lease.extend"
	kindGrant       = "lease.grant"
	kindApprovalReq = "lease.approval-req"
	kindApprove     = "lease.approve"
	kindWrite       = "data.write"
	kindAck         = "data.ack"
	// Replicated-world kinds: the election machine's traffic, the
	// replicate-before-apply pipeline, promotion state sync, and the
	// NOT_MASTER redirect.
	kindElect     = "repl.elect"
	kindReplWrite = "repl.write"
	kindReplAck   = "repl.write-ack"
	kindSyncReq   = "repl.sync-req"
	kindSyncRep   = "repl.sync-rep"
	kindNotMaster = "lease.notmaster"
	// Installed-class kinds (§4.3): the periodic broadcast extension,
	// the client's membership-snapshot fetch, and its reply — the model
	// analogues of TBroadcastExt, TInstalled, and TInstalledRep.
	kindBroadcast  = "class.broadcast-ext"
	kindClassFetch = "class.fetch"
	kindClassSnap  = "class.snapshot"
	// Sharded-world kinds: the cross-shard rename request/ack, the
	// NOT_OWNER redirect (model analogue of TNotOwner), and the rename's
	// move between masters (TShardMove) and its acknowledgement or
	// refusal.
	kindRename      = "ns.rename"
	kindRenameAck   = "ns.rename-ack"
	kindNotOwner    = "lease.notowner"
	kindXferMove    = "shard.move"
	kindXferMoved   = "shard.moved"
	kindXferRefused = "shard.refused"
)

const serverNode = netsim.NodeID("srv")

func clientNode(i int) netsim.NodeID {
	return netsim.NodeID("c" + strconv.Itoa(i))
}

// serverNodeID names replica i on the fabric. Single-server worlds keep
// the historical "srv" so existing pinned artifacts replay unchanged;
// multi-server worlds (replicated, sharded, or both) use s0..sN-1.
func (w *world) serverNodeID(i int) netsim.NodeID {
	if w.nservers() <= 1 {
		return serverNode
	}
	return netsim.NodeID("s" + strconv.Itoa(i))
}

// groups is the replica-group count; nservers the total server count.
// Group g's replicas occupy global indices [g·Servers, (g+1)·Servers).
func (w *world) groups() int   { return w.sc.groups() }
func (w *world) nservers() int { return w.sc.Servers * w.groups() }

func (w *world) groupOf(idx int) int          { return idx / w.sc.Servers }
func (w *world) replicaOf(idx int) int        { return idx % w.sc.Servers }
func (w *world) globalIdx(group, rep int) int { return group*w.sc.Servers + rep }

// serverIndex inverts serverNodeID (-1 for client nodes).
func (w *world) serverIndex(id netsim.NodeID) int {
	for i := range w.servers {
		if w.serverNodeID(i) == id {
			return i
		}
	}
	return -1
}

// currentMasterOf reports the lowest-indexed live replica of group g
// whose machine holds the master lease on its own clock, or -1.
// Deterministic: the scan order and every clock involved are fixed by
// the scenario.
func (w *world) currentMasterOf(g int) int {
	for r := 0; r < w.sc.Servers; r++ {
		srv := w.servers[w.globalIdx(g, r)]
		if srv.down || srv.mach == nil {
			continue
		}
		if srv.mach.IsMaster(srv.localNow()) {
			return srv.idx
		}
	}
	return -1
}

// datumForFile maps file index f to its FileData datum. Node IDs start
// at 2: the root directory is node 1.
func datumForFile(f int) vfs.Datum {
	return vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(2 + f)}
}

func fileForDatum(d vfs.Datum) int { return int(d.Node) - 2 }

// Options tunes one RunScenario call.
type Options struct {
	// Sink, when non-nil, receives the observability event stream as
	// JSON lines (one per protocol event, in schedule order).
	Sink io.Writer
	// MaxViolations caps how many violations are collected before the
	// oracle stops recording; zero means 8.
	MaxViolations int
}

// Violation is one oracle verdict.
type Violation struct {
	Kind string `json:"kind"`
	// At is the virtual offset from scenario start.
	At     time.Duration `json:"at"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string { return fmt.Sprintf("[%s @%v] %s", v.Kind, v.At, v.Detail) }

// Outcome summarizes one execution.
type Outcome struct {
	Violations []Violation

	Reads       int
	CacheHits   int
	Writes      int
	WritesAcked int
	Extends     int
	// Renewals counts renewal grants that came back on reads and writes;
	// Refills the files that came back on them after their holder
	// approved a write while reading them.
	Renewals int
	Refills  int
	// Renames counts cross-shard moves committed at source masters;
	// RenamesAcked counts rename acks clients observed (sharded worlds
	// only; Renames can exceed RenamesAcked when an ack is lost and the
	// retransmit's re-ack arrives post-crash).
	Renames      int
	RenamesAcked int
	// Redirected counts NOT_OWNER redirects clients followed — zero in
	// unsharded worlds, positive whenever a routing belief went stale.
	Redirected int
	// GivenUp counts operations abandoned after exhausting retries
	// (expected under partitions; never a violation by itself).
	GivenUp int

	Deliveries int64
	Losses     int64
	Events     int64
	// MaxWriteWait is the longest server-side write deferral.
	MaxWriteWait time.Duration
}

// Ok reports a violation-free execution.
func (o *Outcome) Ok() bool { return len(o.Violations) == 0 }

// world wires one scenario's components together: the discrete-event
// engine, the fabric, the model server and clients, and the oracle.
type world struct {
	sc      Scenario
	engine  *sim.Engine
	fabric  *netsim.Fabric
	obs     *obs.Observer
	tracer  *tracing.Tracer
	start   time.Time
	orc     *oracle
	servers []*mserver
	clients []*mclient
	out     *Outcome
	lossRNG *rand.Rand
	// shards is the group-durable namespace state of sharded worlds, one
	// entry per group (nil when Groups <= 1), and home the model's ring:
	// the group each file's name currently hashes to. Sharing them among a
	// group's replicas abstracts away the namespace's durability, which
	// the deployment does not have yet (ROADMAP item 1) — the checker
	// probes the ORDERING of clearance, transfer, and client routing; the
	// file's bytes travel in the move and the destination's replicated
	// write plan.
	shards []*groupShard
	home   []int
	// nextXfer numbers cross-shard transfers world-uniquely.
	nextXfer uint64
	// machStop bounds election-machine timer rearming (true time) so
	// replicated runs quiesce: past it, masters lapse and stragglers
	// exhaust their retries instead of electing forever.
	machStop time.Time
	// asymTarget maps an asym-partition fault's index to the replica it
	// resolved to at window start (the master of that instant). While
	// the window is open, everything that replica SENDS is delayed to
	// just past the window's end — a one-way partition whose backlog
	// flushes on heal.
	asymTarget map[int]int
	// classReigns counts installed-class state installations across all
	// servers. Each (re)initialization — boot, crash restart, promotion
	// — bases its generation at reign<<32, so generations from different
	// reigns never collide: the model analogue of the deployment's
	// connection-scoped snapshots (a TCP client re-fetches after any
	// reconnect) and replicated generation rebinding on failover.
	classReigns uint64
}

// groupShard is one group's durable namespace state: per file, whether
// it exists here (a cross-shard rename clears it at the source's commit
// point and sets it when the destination applies the move, or the source
// puts a refused one back — in between the file exists nowhere), the
// offset that continues its client-facing version from wherever it moved
// in from, and the transfer that last moved it in or was refused here (so
// a retransmitted move is re-acknowledged, and an older or refused one
// ignored).
type groupShard struct {
	owned    []bool
	base     []int64
	lastXfer []uint64
}

// mix derives independent deterministic seeds for the engine
// tie-breaker, the fabric jitter, and the loss windows, so shrinking
// one dimension does not perturb the others.
func mix(seed, salt int64) int64 {
	x := uint64(seed) ^ uint64(salt)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// localAt maps true time onto a node's drifting, skewed clock:
// local = start + rate·(now − start) + skew.
func localAt(start, now time.Time, rate float64, skew time.Duration) time.Time {
	if rate != 0 && rate != 1 {
		now = start.Add(time.Duration(float64(now.Sub(start)) * rate))
	}
	return now.Add(skew)
}

// trueAt inverts localAt: the earliest true instant at which the
// node's clock reads at least local. The float inversion truncates, so
// the result is nudged forward until the round trip lands — otherwise
// a timer converted through trueAt can fire a nanosecond early on the
// local clock, observe nothing due, rearm at the same instant, and
// livelock the engine.
func trueAt(start, local time.Time, rate float64, skew time.Duration) time.Time {
	local = local.Add(-skew)
	if rate == 0 || rate == 1 {
		return local
	}
	at := start.Add(time.Duration(float64(local.Sub(start)) / rate))
	for localAt(start, at, rate, 0).Before(local) {
		at = at.Add(time.Nanosecond)
	}
	return at
}

// RunScenario executes one scenario to completion and reports the
// outcome. Execution is fully deterministic: equal scenarios yield
// equal outcomes and equal event streams.
func RunScenario(sc Scenario, opt Options) (*Outcome, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxViolations <= 0 {
		opt.MaxViolations = 8
	}
	w := &world{sc: sc, out: &Outcome{}, asymTarget: make(map[int]int)}
	w.engine = sim.New(clock.Epoch)
	w.start = w.engine.Now()
	tieRNG := rand.New(rand.NewSource(mix(sc.Seed, 0x7ea5)))
	w.engine.SetTieBreaker(func(n int) int { return tieRNG.Intn(n) })
	w.fabric = netsim.New(w.engine, netsim.Params{
		Prop:   sc.Prop,
		Proc:   sc.Proc,
		Jitter: sc.Jitter,
		Seed:   mix(sc.Seed, 0xfab),
	})
	w.fabric.SetFaults(w.faultFor)
	w.lossRNG = rand.New(rand.NewSource(mix(sc.Seed, 0x1055)))
	w.obs = obs.New(obs.Config{RingSize: 1 << 15, Sink: opt.Sink, Now: w.engine.Now})
	// Every operation is traced (100% sampling) so the span-tree lens
	// sees the whole execution; RetainIndex lets it resolve parents when
	// an at-least-once retransmit re-opens a completed TraceID. The
	// engine is single-threaded, so span IDs are deterministic.
	w.tracer = tracing.New(tracing.Config{
		Now: w.engine.Now, Node: "check", SampleRate: 1,
		Seed: mix(sc.Seed, 0x7ace), MaxActive: 1 << 13, Completed: 1 << 13,
		RetainIndex: true,
	})
	w.orc = newOracle(w, opt.MaxViolations)
	// Elections keep renewing well past the last scheduled activity —
	// long enough for every client retry ladder to resolve against a
	// live master — then stop so the engine drains.
	var last time.Duration
	for _, op := range sc.Ops {
		if op.At > last {
			last = op.At
		}
	}
	for _, ft := range sc.Faults {
		if ft.At+ft.Dur > last {
			last = ft.At + ft.Dur
		}
	}
	w.machStop = w.start.Add(last + 2*sc.Term + w.retryBase()<<(maxRetries+1))
	if w.groups() > 1 {
		w.home = make([]int, sc.Files)
		for g := 0; g < w.groups(); g++ {
			sh := &groupShard{owned: make([]bool, sc.Files), base: make([]int64, sc.Files), lastXfer: make([]uint64, sc.Files)}
			for f := 0; f < sc.Files; f++ {
				if sh.owned[f] = f%w.groups() == g; sh.owned[f] {
					w.home[f] = g
				}
			}
			w.shards = append(w.shards, sh)
		}
	}
	for i := 0; i < w.nservers(); i++ {
		w.servers = append(w.servers, newMserver(w, i))
	}
	for i := 0; i < sc.Clients; i++ {
		w.clients = append(w.clients, newMclient(w, i))
	}
	w.scheduleOps()
	w.scheduleFaults()
	w.engine.Run()

	// Post-run lens: under the honest protocol a write may be deferred
	// at most one lease term (§2) plus the crash-recovery window;
	// 2·term + slack bounds both with margin, at the longest term the
	// server grants (srvcore.Config.Ceiling). Installed worlds add the
	// class term: a write to an installed file additionally waits out
	// the broadcast coverage horizon (§4.3 drop-on-write).
	if sc.Break == "" {
		bound := 2*coreConfig(sc, nil).Ceiling() + time.Second
		if sc.Installed {
			bound += 2 * sc.InstalledTerm
		}
		if w.out.MaxWriteWait > bound {
			w.orc.violate(vSlowWrite, fmt.Sprintf("a write was deferred %v, past the %v bound", w.out.MaxWriteWait, bound))
		}
	}
	w.spanLens()
	w.out.Deliveries = w.fabric.Deliveries()
	w.out.Losses = w.fabric.Losses()
	for _, ec := range w.obs.EventCounts() {
		w.out.Events += ec.N
	}
	return w.out, nil
}

func (w *world) scheduleOps() {
	for i := range w.sc.Ops {
		op := w.sc.Ops[i]
		c := w.clients[op.Client]
		w.engine.At(w.start.Add(op.At), func() { c.doOp(op) })
	}
}

func (w *world) scheduleFaults() {
	for i := range w.sc.Faults {
		ft := w.sc.Faults[i]
		switch ft.Kind {
		case FaultPartition:
			node := clientNode(ft.Client)
			sn := w.serverNodeID(ft.Server)
			w.engine.At(w.start.Add(ft.At), func() {
				w.obs.Record(obs.Event{Type: obs.EvFaultInject, Client: string(node)})
				w.fabric.CutLink(node, sn)
			})
			w.engine.At(w.start.Add(ft.At+ft.Dur), func() {
				w.fabric.HealLink(node, sn)
			})
		case FaultClientCrash:
			c := w.clients[ft.Client]
			w.engine.At(w.start.Add(ft.At), func() {
				w.obs.Record(obs.Event{Type: obs.EvFaultInject, Client: string(c.node)})
				c.crash()
			})
			w.engine.At(w.start.Add(ft.At+ft.Dur), func() { c.restart() })
		case FaultServerCrash:
			srv := w.servers[ft.Server]
			w.engine.At(w.start.Add(ft.At), func() {
				w.obs.Record(obs.Event{Type: obs.EvFaultInject, Client: string(srv.node)})
				srv.crash()
			})
			w.engine.At(w.start.Add(ft.At+ft.Dur), func() { srv.restart() })
		case FaultMasterCrash:
			// The target is whoever holds the fault's group's master
			// lease when the fault fires; remember it so the restart
			// half matches.
			target := -1
			w.engine.At(w.start.Add(ft.At), func() {
				target = w.currentMasterOf(ft.Group)
				if target < 0 {
					return // mid-election: nobody to crash
				}
				w.obs.Record(obs.Event{Type: obs.EvFaultInject, Client: string(w.servers[target].node)})
				w.servers[target].crash()
			})
			w.engine.At(w.start.Add(ft.At+ft.Dur), func() {
				if target >= 0 {
					w.servers[target].restart()
				}
			})
		case FaultAsymPartition:
			idx := i
			w.engine.At(w.start.Add(ft.At), func() {
				target := w.currentMasterOf(ft.Group)
				if target < 0 {
					return
				}
				w.asymTarget[idx] = target
				w.obs.Record(obs.Event{Type: obs.EvFaultInject, Client: string(w.servers[target].node)})
			})
			w.engine.At(w.start.Add(ft.At+ft.Dur), func() {
				delete(w.asymTarget, idx)
			})
		case FaultDrop, FaultDelay, FaultLoss:
			// Window faults act through faultFor on each delivery.
		}
	}
}

// retryBase is the starting backoff for every at-least-once retry in
// the model (client ops, replication frames, promotion sync): a little
// over one worst-case round trip.
func (w *world) retryBase() time.Duration {
	return 3*(2*w.sc.Prop+4*w.sc.Proc) + 4*w.sc.Jitter + time.Millisecond
}

// faultFor is the fabric's per-delivery fault choice point: it scans
// the schedule's window faults active at the current virtual instant.
// The fabric consults it in deterministic delivery order, so the
// lossRNG stream — and therefore every loss decision — replays
// exactly under equal scenarios.
func (w *world) faultFor(from, to netsim.NodeID, kind string) netsim.FaultDecision {
	var dec netsim.FaultDecision
	now := w.engine.Now().Sub(w.start)
	for i := range w.sc.Faults {
		ft := &w.sc.Faults[i]
		if now < ft.At || now >= ft.At+ft.Dur {
			continue
		}
		switch ft.Kind {
		case FaultLoss:
			if w.lossRNG.Float64() < ft.Rate {
				dec.Drop = true
			}
		case FaultDrop:
			if ft.matches(from, to, kind, w.serverNodeID(ft.Server)) {
				dec.Drop = true
			}
		case FaultDelay:
			if ft.matches(from, to, kind, w.serverNodeID(ft.Server)) {
				dec.Delay += ft.Extra
			}
		case FaultAsymPartition:
			// One-way partition: everything the isolated master sends is
			// held until just past the window's end, then flushed. The
			// master still HEARS the world — the nastiest shape, because
			// it keeps believing its lease matters while its grants and
			// replication frames are stuck in the void.
			target, ok := w.asymTarget[i]
			if ok && from == w.serverNodeID(target) {
				dec.Delay += ft.At + ft.Dur - now + 2*time.Millisecond
			}
		}
	}
	return dec
}

// matches reports whether a drop/delay fault applies to one delivery.
// sn is the server endpoint the fault names (always "srv" in
// single-server worlds).
func (ft *Fault) matches(from, to netsim.NodeID, kind string, sn netsim.NodeID) bool {
	if ft.MsgKind != "" && ft.MsgKind != kind {
		return false
	}
	c := clientNode(ft.Client)
	if ft.ToServer {
		return from == c && to == sn
	}
	return from == sn && to == c
}
