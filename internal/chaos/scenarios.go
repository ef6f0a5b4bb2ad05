package chaos

import (
	"sync/atomic"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/faultnet"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/server"
)

// The fault scripts. Each runs in the foreground while the workload
// hammers the deployment, placing its faults at fractions of
// Options.Duration via a faultnet.Schedule (so every fault lands as a
// traceable fault-inject event) and then letting the system settle
// before the checker's verdict.
var scenarioTable = []scenarioSpec{
	{
		name:     "smoke",
		summary:  "mild latency plus one connection storm; the CI canary",
		duration: 2 * time.Second,
		run:      runSmoke,
	},
	{
		name:     "loss",
		summary:  "probabilistic connection severs under latency jitter",
		duration: 3 * time.Second,
		run:      runLoss,
	},
	{
		name:     "partition",
		summary:  "flapping partition: refuse and sever, heal, repeat",
		duration: 4 * time.Second,
		run:      runPartition,
	},
	{
		name:     "server-crash",
		summary:  "crash-stop the server mid-deferred-write, restart from the durable max-term file",
		duration: 4 * time.Second,
		run:      runServerCrash,
	},
	{
		name:     "client-crash",
		summary:  "crash a client holding a lease; a conflicting write waits out the term",
		duration: 3 * time.Second,
		run:      runClientCrash,
	},
	{
		name:     "pipeline",
		summary:  "a client keeps a window of pipelined futures in flight through latency jitter and a mid-run sever",
		duration: 3 * time.Second,
		run:      runPipeline,
	},
	{
		name:      "installed-class",
		summary:   "installed-files class under loss and a mid-run sever: broadcasts, drop-on-write demotions, re-promotions and renewals riding reads, consistency intact",
		duration:  4 * time.Second,
		installed: true,
		run:       runInstalledClass,
	},
	{
		name:       "master-crash",
		summary:    "crash the elected master of a 3-replica set mid-workload; clients fail over behind the §2 recovery window",
		duration:   6 * time.Second,
		replicated: true,
		run:        runMasterCrash,
	},
	{
		name:       "asym-partition",
		summary:    "asymmetrically partition the master — it sends into a void but still hears peers — so it must demote on its own stale lease",
		duration:   6 * time.Second,
		replicated: true,
		run:        runAsymPartition,
	},
	{
		name:     "shard-split",
		summary:  "two replica groups behind one ring: cross-shard renames, a stale routing table converging via NOT_OWNER, and a source-group master crash mid-rename",
		duration: 6 * time.Second,
		sharded:  true,
		run:      runShardSplit,
	},
}

func runSmoke(h *harness) {
	d := h.o.Duration
	faultnet.NewSchedule(h.obs).
		At(0, "latency-on", func() {
			h.proxy.SetBoth(faultnet.LinkConfig{Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})
		}).
		At(d/2, "sever-all", h.proxy.SeverAll).
		At(d, "heal", func() { h.proxy.SetBoth(faultnet.LinkConfig{}) }).
		Run(clock.Real{}, h.stop)
	h.settle()
}

func runLoss(h *harness) {
	d := h.o.Duration
	faultnet.NewSchedule(h.obs).
		At(0, "loss-on", func() {
			h.proxy.SetBoth(faultnet.LinkConfig{
				DropProb: 0.01, Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
			})
		}).
		At(d, "loss-off", func() { h.proxy.SetBoth(faultnet.LinkConfig{}) }).
		Run(clock.Real{}, h.stop)
	h.settle()
}

func runPartition(h *harness) {
	d := h.o.Duration
	sched := faultnet.NewSchedule(h.obs)
	for i := 0; i < 3; i++ {
		at := d * time.Duration(2*i+1) / 8
		sched.At(at, "partition", h.proxy.Partition)
		sched.At(at+d/8, "heal", h.proxy.Heal)
	}
	sched.Run(clock.Real{}, h.stop)
	h.settle()
}

// runServerCrash is the §2 restart-after-crash scenario, end to end on
// real TCP: a lurker client takes a lease and crashes so the writer's
// next write on that file is deferring when the server crash-stops;
// the restarted incarnation reads the durable max-term file and
// observes the recovery window automatically. The writer must come out
// the other side with its session re-established against the new
// incarnation, consistency intact.
func runServerCrash(h *harness) {
	d := h.o.Duration
	bootBefore := h.clients[0].ServerBoot()
	faultnet.NewSchedule(h.obs).
		At(d/4, "lurker-lease", h.lurkerLease).
		At(d/4+150*time.Millisecond, "server-crash", h.crashServer).
		At(d/4+650*time.Millisecond, "server-restart", h.restartServer).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settle()

	// The writer should have reconnected to the new incarnation and
	// seen its boot ID change in the hello ack.
	deadline := time.Now().Add(5 * time.Second)
	for h.clients[0].ServerBoot() == bootBefore && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if boot := h.clients[0].ServerBoot(); boot == bootBefore {
		h.ck.violate("liveness", "writer never observed the restarted server incarnation (boot still %d)", boot)
	}
	if term, found, err := server.LoadMaxTerm(h.maxTermPath); err != nil || !found || term <= 0 {
		h.ck.violate("harness", "durable max-term file unusable after crash: term=%v found=%v err=%v", term, found, err)
	}
}

// lurkerLease takes a lease and abandons the connection without
// releasing it, leaving an unreachable holder on the server.
func (h *harness) lurkerLease() {
	c, err := client.Dial(h.proxy.Addr(), h.clientCfg("lurker", 99))
	if err != nil {
		h.logf("chaos: lurker dial: %v", err)
		return
	}
	if _, err := c.Read(workFiles[0]); err != nil {
		h.logf("chaos: lurker read: %v", err)
	}
	c.Abandon()
}

func runClientCrash(h *harness) {
	d := h.o.Duration
	faultnet.NewSchedule(h.obs).
		At(d/3, "client-crash", h.clientCrashProbe).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settle()
}

// clientCrashProbe is the paper's client-crash case in miniature: a
// victim reads the probe file (taking a lease), crashes without
// releasing it, and a prober immediately writes the same file. The
// server cannot reach the victim for approval, so the write must be
// deferred until the victim's lease term runs out — and no longer.
func (h *harness) clientCrashProbe() {
	victim, err := client.Dial(h.proxy.Addr(), h.clientCfg("victim", 98))
	if err != nil {
		h.ck.violate("harness", "victim dial: %v", err)
		return
	}
	if _, err := victim.Read(workFiles[victimIdx]); err != nil {
		victim.Abandon()
		h.ck.violate("harness", "victim read: %v", err)
		return
	}
	held := victim.HeldLeases()
	victim.Abandon()
	if held == 0 {
		h.ck.violate("harness", "victim held no leases before crashing")
		return
	}

	prober, err := client.Dial(h.proxy.Addr(), h.clientCfg("prober", 97))
	if err != nil {
		h.ck.violate("harness", "prober dial: %v", err)
		return
	}
	defer prober.Close()
	seq := h.ck.floors.Floor(victimIdx) + 1
	start := time.Now()
	err = prober.Write(workFiles[victimIdx], payload(workFiles[victimIdx], seq))
	delay := time.Since(start)
	if err != nil {
		h.ck.violate("liveness", "probe write after client crash failed: %v", err)
		return
	}
	h.ck.acked(victimIdx, seq, delay)
	if delay < h.o.Term/4 {
		h.ck.violate("bounded-delay", "probe write cleared in %v — expected deferral behind the crashed client's lease (term %v)",
			delay, h.o.Term)
	}
}

// runMasterCrash is the tentpole failover scenario: the elected master
// of a 3-replica deployment crash-stops mid-workload (election node
// and lease server together), the survivors elect a successor whose
// promotion syncs replicated state from a quorum and waits out the §2
// recovery window, and the clients' replica-set failover lands the
// workload on the new master. Later the crashed replica rejoins as a
// follower — a diskless restart that must catch up before it counts.
// The acked-floor checker holds across the whole arc: every write
// acknowledged before the crash stays visible after it.
func runMasterCrash(h *harness) {
	rs := h.repl
	d := h.o.Duration
	var crashed atomic.Int64
	crashed.Store(-1)
	faultnet.NewSchedule(h.obs).
		At(d/4, "master-crash", func() {
			m := rs.waitMaster(5 * time.Second)
			if m < 0 {
				h.ck.violate("election", "no master was ever elected to crash")
				return
			}
			h.logf("chaos: crashing master %d", m)
			crashed.Store(int64(m))
			rs.crash(m)
		}).
		At(3*d/4, "replica-restart", func() {
			if m := crashed.Load(); m >= 0 {
				h.logf("chaos: restarting replica %d as follower", m)
				rs.restart(int(m))
			}
		}).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settleReplicated()
	if m := crashed.Load(); m < 0 {
		return
	}
	if rs.waitMaster(5*time.Second) < 0 {
		h.ck.violate("election", "no master after the crash — the survivors never failed over")
	}
	if n := electedCount(h.obs); n < 2 {
		h.ck.violate("election", "no failover election recorded (elected events: %d)", n)
	}
}

// runAsymPartition partitions the master asymmetrically: every frame
// it sends toward its peers is held at the link proxies while peer
// traffic still reaches it. Unable to renew, it must demote itself on
// its own (stale) lease clock within one election term, while the
// peers — who can still talk to each other — elect a successor. The
// heal then flushes the held frames, so the deposed master's stale
// ballots arrive late and must lose on ballot comparison, not timing.
func runAsymPartition(h *harness) {
	rs := h.repl
	d := h.o.Duration
	var victim atomic.Int64
	victim.Store(-1)
	faultnet.NewSchedule(h.obs).
		At(d/4, "asym-partition", func() {
			m := rs.waitMaster(5 * time.Second)
			if m < 0 {
				h.ck.violate("election", "no master was ever elected to partition")
				return
			}
			h.logf("chaos: asymmetrically partitioning master %d", m)
			victim.Store(int64(m))
			rs.partitionOutbound(m)
		}).
		At(3*d/4, "heal", rs.healLinks).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settleReplicated()
	if victim.Load() < 0 {
		return
	}
	if rs.waitMaster(5*time.Second) < 0 {
		h.ck.violate("election", "no master after the asymmetric partition healed")
	}
	if n := electedCount(h.obs); n < 2 {
		h.ck.violate("election", "the partitioned master was never succeeded (elected events: %d)", n)
	}
}

// runInstalledClass drives the §4 lease-class wire paths under faults.
// Every workload file is statically installed, so the run exercises the
// whole class life cycle: initial promotion on first read, periodic
// broadcast extensions keeping the readers' copies hot, drop-on-write
// demotion (with its coverage-horizon wait) every time the writer
// touches a hot file, and re-promotion once the short quiet window
// passes. Beside them a rider reads with no renewal loop: it never
// fetches the class snapshot and never sends TExtend, so only renewals
// riding its reads keep its per-file leases alive. Packet loss stresses
// broadcast and snapshot delivery (a lost broadcast just widens the gap
// to the next; a lost snapshot refetches on the next generation
// mismatch); the mid-run sever forces every session through reconnect,
// which drops the class snapshot and must refetch it before trusting
// another broadcast. The standard acked-floor checker holds throughout,
// and a class-activity lens asserts each wire path actually fired — a
// scenario that silently stopped exercising the class would otherwise
// keep passing on the consistency lens alone.
func runInstalledClass(h *harness) {
	cfg := h.clientCfg("rider", 96)
	cfg.AutoExtend = 0
	rider, err := client.Dial(h.proxy.Addr(), cfg)
	if err != nil {
		h.ck.violate("harness", "rider: %v", err)
		return
	}
	h.clients = append(h.clients, rider)
	h.wg.Add(1)
	go h.readerLoop(rider, len(h.clients))
	// The event ring may evict early events, so it is read twice.
	renewed := false
	sawRenewal := func() {
		for _, ev := range h.obs.Events(0) {
			renewed = renewed || ev.Type == obs.EvExtend && ev.Client == "rider" && ev.Term > 0
		}
	}
	d := h.o.Duration
	faultnet.NewSchedule(h.obs).
		At(0, "loss-on", func() {
			h.proxy.SetBoth(faultnet.LinkConfig{
				DropProb: 0.005, Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
			})
		}).
		At(d/2, "sever-all", func() {
			sawRenewal()
			h.proxy.SeverAll()
		}).
		At(3*d/4, "heal", func() { h.proxy.SetBoth(faultnet.LinkConfig{}) }).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settle()
	sawRenewal()

	counts := map[string]int64{}
	for _, ec := range h.obs.EventCounts() {
		counts[ec.Type] = ec.N
	}
	for _, ev := range []string{"class-promote", "class-demote", "broadcast-ext"} {
		if counts[ev] == 0 {
			h.ck.violate("class-activity", "no %s event in an installed-class run — that wire path never fired", ev)
		}
	}
	if n := rider.WireStats().Frames(proto.TExtend, "out"); n != 0 || !renewed {
		h.ck.violate("class-activity", "rider: renewals granted %v, TExtend frames sent %d; want renewals riding its reads alone", renewed, n)
	}
}

// electedCount totals elected events across the run.
func electedCount(o *obs.Observer) int64 {
	for _, ec := range o.EventCounts() {
		if ec.Type == "elected" {
			return ec.N
		}
	}
	return 0
}

// settleReplicated extends settle for replicated scenarios: a failover
// costs an election plus the promoted master's §2 recovery window (one
// file-lease term) before writes clear again.
func (h *harness) settleReplicated() {
	time.Sleep(h.o.Term + h.o.Term/2 + time.Second)
	h.settle()
}

// runPipeline drives the asynchronous client API through the fault
// proxy: an extra client keeps a depth-8 window of StartRead futures
// (plus periodic batched extensions) in flight while the standard
// writer keeps invalidating the same files, so approval pushes
// interleave with pipelined replies on a jittery link — and a mid-run
// sever kills the whole window, whose futures must ride the session
// retry budget onto the reconnected connection. Every harvested read
// is checked against the floor snapshotted when it was issued: a
// pipelined read is held to exactly the same consistency bar as a
// blocking one.
func runPipeline(h *harness) {
	d := h.o.Duration
	pipeliner, err := client.Dial(h.proxy.Addr(), h.clientCfg("pipeliner", 50))
	if err != nil {
		h.ck.violate("harness", "pipeliner dial: %v", err)
		return
	}
	pstop := make(chan struct{})
	pdone := make(chan struct{})
	go h.pipelineLoop(pipeliner, pstop, pdone)

	faultnet.NewSchedule(h.obs).
		At(0, "latency-on", func() {
			h.proxy.SetBoth(faultnet.LinkConfig{Latency: time.Millisecond, Jitter: 3 * time.Millisecond})
		}).
		At(d/2, "sever-all", h.proxy.SeverAll).
		At(d, "heal", func() { h.proxy.SetBoth(faultnet.LinkConfig{}) }).
		Run(clock.Real{}, h.stop)
	close(pstop)
	<-pdone
	pipeliner.Close()
	h.settle()
}

// pipelineLoop issues reads through the futures API, keeping up to
// eight in flight, and harvests them oldest-first.
func (h *harness) pipelineLoop(c *client.Cache, stop, done chan struct{}) {
	defer close(done)
	const depth = 8
	type inflight struct {
		fi    int
		floor uint64
		read  *client.ReadCall
	}
	var window []inflight
	harvest := func() {
		op := window[0]
		window = window[1:]
		data, err := op.read.Wait()
		if err != nil {
			h.ck.readErrs.Add(1)
			return
		}
		h.ck.observeRead(op.fi, data, op.floor)
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			for len(window) > 0 {
				harvest()
			}
			return
		default:
		}
		if len(window) >= depth {
			harvest()
		}
		if i%16 == 15 {
			// A batched extension rides in the same window as the reads.
			if err := c.StartExtendAll().Wait(); err != nil {
				h.ck.readErrs.Add(1)
			}
			continue
		}
		fi := i % 2 // the victim file belongs to the client-crash probe
		floor := h.ck.floors.Floor(fi)
		window = append(window, inflight{fi: fi, floor: floor, read: c.StartRead(workFiles[fi])})
	}
}
