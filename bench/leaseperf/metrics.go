package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"leases/bench/topo"
)

// metricDef is one line of the benchmark's metric catalogue. The
// catalogue is the source of BENCHMARK.json (`leaseperf -spec`) and of
// the tables in bench/README.md (`leaseperf -catalogue`).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression.
	bound float64
	layer string // the module a per-layer metric belongs to
	how   string // how it is measured
	moves string // which end-to-end metric it should move, on which workload
}

// endToEnd are the metrics a user of the file service would see. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		how: "boot, seeding and dialing up to each connection's first op; median of the run's set-ups"},
	{name: "read_ops_s", unit: "1/s", better: "higher", bound: 0.20,
		how: "completed reads per second in the phase that reads: 90th percentile of the per-slice rates in a closed loop, completed ÷ elapsed in the open one"},
	{name: "write_ops_s", unit: "1/s", better: "higher", bound: 0.20,
		how: "completed writes per second in the phase that writes, likewise"},
	{name: "srv_msgs_per_op", unit: "count", better: "lower", bound: 0.05,
		how: "frames the servers received and sent, hello excluded, per completed op — formula 1 normalised: median over each phase's slices, mean of the phases"},
}

// perLayer are the metrics of single layers: counts read off exported
// counters over the window, isolated probes of exported calls, and
// span statistics of the traced run. A workload reports 0 for a metric
// of a layer it does not use.
var perLayer = []metricDef{
	{name: "loadgen.late_p99_us", unit: "us", better: "lower", layer: "bench",
		how:   "p99 of issue − due, open loop",
		moves: "validity: a v_mix run above 500 µs, half the mean gap between arrivals, prints a warning"},
	{name: "loadgen.offered_ops_s", unit: "1/s", better: "higher", layer: "bench",
		how: "ops scheduled ÷ window, open loop", moves: "validity: must match completed ops/s on v_mix"},
	{name: "process.allocs_per_op", unit: "count", better: "lower", layer: "process",
		how: "runtime.MemStats.Mallocs delta ÷ ops", moves: "process.cpu_us_per_op, then read_ops_s/write_ops_s, on single_sat; nothing on repl_write"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower", layer: "process",
		how: "PauseTotalNs delta over the window", moves: "as allocs_per_op"},
	{name: "process.rss_peak_mb", unit: "MB", better: "lower", layer: "process",
		how: "VmHWM at the end of the run", moves: "setup_s"},
	{name: "process.goroutines_peak", unit: "count", better: "lower", layer: "process",
		how: "largest runtime.NumGoroutine seen at a slice end", moves: "process.cpu_us_per_op on single_sat"},
	{name: "process.cpu_us_per_op", unit: "us", better: "lower", layer: "process",
		how:   "getrusage user+sys of the whole process per completed op: 10th percentile over each phase's slices — the stretches free of collector and neighbours — then the mean of the phases",
		moves: "read_ops_s, write_ops_s on single_sat, shard_mix; nothing on repl_write"},
	{name: "process.read_cpu_us", unit: "us", better: "lower", layer: "process",
		how: "process CPU per op in phase read", moves: "read_ops_s on single_sat, shard_mix"},
	{name: "process.write_cpu_us", unit: "us", better: "lower", layer: "process",
		how: "process CPU per op in phase write", moves: "write_ops_s on single_sat, shard_mix; not on repl_write"},
	{name: "process.rename_cpu_us", unit: "us", better: "lower", layer: "process",
		how: "process CPU per op in phase rename", moves: "router.rename_ops_s on shard_mix"},

	{name: "client.hit_ns", unit: "ns", better: "lower", layer: "client",
		how: "probe: Cache.Read under valid file and binding leases", moves: "process.cpu_us_per_op on v_mix only"},
	{name: "client.hit_ratio", unit: "ratio", better: "higher", layer: "client",
		how: "Metrics.ReadHits ÷ Metrics.Reads", moves: "srv_msgs_per_op, process.cpu_us_per_op on v_mix; 0 by construction on cold scans"},
	{name: "client.rtts_per_miss", unit: "count", better: "lower", layer: "client",
		how: "(TLookup + TRead requests) ÷ TRead requests in the phase that reads; 2 on a cold scan today, more where hits and writes look paths up too", moves: "client.read_p50_us on v_mix; read_ops_s on single_sat, shard_mix"},
	{name: "client.write_syscalls_per_op", unit: "count", better: "lower", layer: "client",
		how: "Write calls on the client's socket ÷ ops", moves: "process.cpu_us_per_op on single_sat; write_ops_s on repl_write"},
	{name: "client.read_syscalls_per_op", unit: "count", better: "lower", layer: "client",
		how: "Read calls on the client's socket ÷ ops", moves: "process.cpu_us_per_op on single_sat"},
	{name: "client.invalidations_per_write", unit: "count", better: "lower", layer: "client",
		how: "Metrics.Invalidations ÷ writes", moves: "client.hit_ratio, srv_msgs_per_op on v_mix"},
	{name: "client.crossed_writes_per_1k", unit: "count", better: "lower", layer: "client",
		how:   "writes during which an approval push reached the writer, per 1000 writes; the generator issues them again (README, findings)",
		moves: "client.write_p50_us tail on v_mix; the reissue can go once the client drops its old copy"},
	{name: "client.read_p50_us", unit: "us", better: "lower", layer: "client",
		how:   "median latency of reads the cache could not serve (ReadCall.Hit false), from the instant the op was due",
		moves: "read_ops_s on single_sat, shard_mix (depth 1: rate is connections ÷ latency)"},
	{name: "client.read_p99_us", unit: "us", better: "lower", layer: "client",
		how: "companion of client.read_p50_us", moves: "reported"},
	{name: "client.write_p50_us", unit: "us", better: "lower", layer: "client",
		how:   "median latency of writes no other connection holds a lease against, from the instant the op was due",
		moves: "write_ops_s on repl_write (8 in flight ÷ latency), single_sat, shard_mix"},
	{name: "client.write_p99_us", unit: "us", better: "lower", layer: "client",
		how: "companion of client.write_p50_us", moves: "reported"},
	{name: "client.shared_write_p50_us", unit: "us", better: "lower", layer: "client",
		how: "median latency of writes to /sh, which the other connection reads: formula 2's added delay", moves: "v_mix only; core.write_approve_ns and approval frames move it"},
	{name: "client.shared_write_p99_us", unit: "us", better: "lower", layer: "client",
		how: "companion of shared_write_p50_us", moves: "reported, never gates"},
	{name: "client.rename_p50_us", unit: "us", better: "lower", layer: "client",
		how: "median latency of renames within a shard", moves: "router.rename_ops_s on shard_mix"},
	{name: "client.xrename_p50_us", unit: "us", better: "lower", layer: "client",
		how: "median latency of cross-shard renames", moves: "router.rename_ops_s on shard_mix"},
	{name: "client.xrename_p99_us", unit: "us", better: "lower", layer: "client",
		how: "companion of xrename_p50_us", moves: "reported, never gates"},

	{name: "router.redirects", unit: "count", better: "lower", layer: "router",
		how: "Router.Redirects delta; 0 in steady state", moves: "read_ops_s on shard_mix; the run is void above 0"},
	{name: "router.rename_ops_s", unit: "1/s", better: "higher", layer: "router",
		how: "renames per second, local and cross, in phase rename: 90th percentile of the per-slice rates", moves: "shard_mix only"},
	{name: "router.read_tax_pct", unit: "%", better: "lower", layer: "router",
		how: "1 − read_ops_s(shard_mix) ÷ read_ops_s(single_sat); full run only", moves: "read_ops_s on shard_mix only"},

	{name: "proto.encode_ns", unit: "ns", better: "lower", layer: "proto",
		how: "probe: BeginFrame/Enc/FinishFrame per frame of the workload's mix", moves: "process.cpu_us_per_op on single_sat, × frames_per_op"},
	{name: "proto.decode_ns", unit: "ns", better: "lower", layer: "proto",
		how: "probe: FrameReader.Next and Dec per frame", moves: "as encode_ns"},
	{name: "proto.frames_per_op", unit: "count", better: "lower", layer: "proto",
		how: "client WireStats frames, both directions, ÷ ops", moves: "process.cpu_us_per_op on single_sat"},
	{name: "proto.bytes_per_op", unit: "B", better: "lower", layer: "proto",
		how: "client WireStats bytes ÷ ops", moves: "process.cpu_us_per_op on single_sat"},
	{name: "proto.ext_frames_per_op", unit: "count", better: "lower", layer: "proto",
		how: "server extend, extend-reply and piggyback frames ÷ ops", moves: "srv_msgs_per_op on v_mix"},
	{name: "proto.approval_frames_per_op", unit: "count", better: "lower", layer: "proto",
		how: "server approval-request and approve frames ÷ ops", moves: "srv_msgs_per_op on v_mix"},

	{name: "coalescer.append_ns", unit: "ns", better: "lower", layer: "coalescer",
		how: "probe: Coalescer.Append to io.Discard per frame", moves: "process.cpu_us_per_op on single_sat"},
	{name: "coalescer.frames_per_flush", unit: "count", better: "higher", layer: "coalescer",
		how: "server Observer.FlushStats, traced run", moves: "write_ops_s on repl_write; stays 1.0 at depth 1"},

	{name: "core.grant_ns", unit: "ns", better: "lower", layer: "core",
		how: "probe: ShardedManager.Grant", moves: "process.cpu_us_per_op on single_sat"},
	{name: "core.write_clear_ns", unit: "ns", better: "lower", layer: "core",
		how: "probe: SubmitWriteHeld, ReadyWritesShard, WriteApplied with no holder", moves: "process.cpu_us_per_op on single_sat"},
	{name: "core.write_approve_ns", unit: "ns", better: "lower", layer: "core",
		how: "probe: the same with one holder approving", moves: "client.shared_write_p50_us on v_mix"},
	{name: "core.holder_valid_ns", unit: "ns", better: "lower", layer: "core",
		how: "probe: Holder.Valid on a held lease", moves: "client.hit_ns"},
	{name: "core.leases_live", unit: "count", better: "lower", layer: "core",
		how: "Server.LeaseCount after the window", moves: "process.rss_peak_mb"},
	{name: "core.writes_deferred_ratio", unit: "ratio", better: "lower", layer: "core",
		how: "ManagerMetrics WritesDeferred ÷ all writes", moves: "about ½ on v_mix by construction; the run is void above 0 on single_sat, repl_write"},
	{name: "core.expiry_release_ratio", unit: "ratio", better: "lower", layer: "core",
		how: "ExpiryReleases ÷ WritesDeferred", moves: "client.shared_write_p99_us on v_mix; about 0 while holders answer"},
	{name: "core.defer_wait_p50_us", unit: "us", better: "lower", layer: "core",
		how: "median write.defer span, traced run", moves: "client.shared_write_p50_us on v_mix"},

	{name: "vfs.lookup_ns", unit: "ns", better: "lower", layer: "vfs",
		how: "probe: Store.Lookup on the seeded store", moves: "process.cpu_us_per_op on single_sat"},
	{name: "vfs.read_ns", unit: "ns", better: "lower", layer: "vfs",
		how: "probe: Store.ReadFile", moves: "process.cpu_us_per_op on single_sat"},
	{name: "vfs.write_ns", unit: "ns", better: "lower", layer: "vfs",
		how: "probe: Store.WriteFile", moves: "process.cpu_us_per_op on single_sat"},
	{name: "vfs.rename_ns", unit: "ns", better: "lower", layer: "vfs",
		how: "probe: Store.Rename", moves: "router.rename_ops_s on shard_mix"},

	{name: "classes.members", unit: "count", better: "higher", layer: "classes",
		how: "Cache.InstalledClass after the window", moves: "65 on v_mix (64 files and the /inst binding) or the run is void; 0 elsewhere"},
	{name: "classes.bcast_frames_per_s", unit: "1/s", better: "lower", layer: "classes",
		how: "server broadcast-extension frames ÷ window", moves: "srv_msgs_per_op on v_mix"},
	{name: "classes.inst_hit_ratio", unit: "ratio", better: "higher", layer: "classes",
		how: "reads of /inst the cache served ÷ reads of /inst", moves: "client.hit_ratio, srv_msgs_per_op on v_mix"},

	{name: "replica.quorum_wait_p50_us", unit: "us", better: "lower", layer: "replica",
		how: "server Observer repl-quorum-wait histogram, traced run", moves: "client.write_p50_us on repl_write"},
	{name: "replica.ship_p50_us", unit: "us", better: "lower", layer: "replica",
		how: "median repl.ship span, traced run", moves: "client.write_p50_us on repl_write"},
	{name: "replica.peer_frames_per_write", unit: "count", better: "lower", layer: "replica",
		how: "frames counted on the peer delay lines ÷ writes", moves: "write_ops_s on repl_write"},
	{name: "replica.peer_bytes_per_write", unit: "B", better: "lower", layer: "replica",
		how: "bytes counted on the peer delay lines ÷ writes", moves: "write_ops_s on repl_write"},
	{name: "replica.write_refusals_per_1k", unit: "count", better: "lower", layer: "replica",
		how:   "writes the master refused because its peers fenced the replication frame, per 1000 writes; the generator reissues them",
		moves: "client.write_p50_us tail on repl_write; 0 once a lease renewal no longer fences the master's own frames"},
	{name: "replica.write_tax_x", unit: "x", better: "lower", layer: "replica",
		how: "write_ops_s(single_sat) ÷ write_ops_s(repl_write); full run only", moves: "reported"},
	{name: "replica.elections", unit: "count", better: "lower", layer: "replica",
		how: "masters elected inside the window", moves: "the run is void above 0"},
	{name: "replica.failover_ms", unit: "ms", better: "lower", layer: "replica",
		how: "master stopped once after the window: time to the first acknowledged write; one sample, traced run", moves: "never gates"},

	{name: "shard.lookup_ns", unit: "ns", better: "lower", layer: "shard",
		how: "probe: Ring.Lookup", moves: "process.cpu_us_per_op on shard_mix"},
	{name: "shard.prepare_p50_us", unit: "us", better: "lower", layer: "shard",
		how: "median shard.prepare span, traced run", moves: "client.xrename_p50_us"},
	{name: "shard.commit_p50_us", unit: "us", better: "lower", layer: "shard",
		how: "median shard.commit span, traced run", moves: "client.xrename_p50_us"},

	{name: "server.read_self_us", unit: "us", better: "lower", layer: "server",
		how: "median self time of server.read spans, traced run", moves: "client.read_p50_us on v_mix"},
	{name: "server.write_self_us", unit: "us", better: "lower", layer: "server",
		how: "median self time of server.write spans", moves: "client.write_p50_us on v_mix"},
	{name: "server.lookup_self_us", unit: "us", better: "lower", layer: "server",
		how: "median self time of server.lookup spans", moves: "client.read_p50_us, client.write_p50_us on v_mix"},
	{name: "server.residue_us", unit: "us", better: "lower", layer: "server",
		how:   "process.cpu_us_per_op − Σ(probe × calls per op): syscalls, goroutine spawn, scheduling, the benchmark's own generator — what cannot be isolated from outside; traced run",
		moves: "the figure dispatch work should shrink, on single_sat"},

	{name: "tracing.span_ns", unit: "ns", better: "lower", layer: "tracing",
		how: "probe: sampled root and child, start to end", moves: "tracing.overhead_pct"},
	{name: "tracing.reject_ns", unit: "ns", better: "lower", layer: "tracing",
		how: "probe: the same with the root not sampled", moves: "tracing.overhead_pct"},
	{name: "tracing.header_bytes_per_op", unit: "B", better: "lower", layer: "tracing",
		how: "proto.bytes_per_op traced − untraced", moves: "tracing.overhead_pct"},
	{name: "tracing.overhead_pct", unit: "%", better: "lower", layer: "tracing",
		how: "process.cpu_us_per_op traced at 1/16 with Obs on, over untraced, same seed and window", moves: "no end-to-end metric: those run untraced"},
}

// lateLimitUs is the level of loadgen.late_p99_us above which a v_mix
// run carries a warning: half the mean gap between arrivals. Lateness
// is a goroutine wake-up and a goroutine start, tens of µs at the
// median; a p99 beyond this means ops were issued in clumps, and every
// latency, timed from the instant the op was due, includes the wait.
const lateLimitUs = 1e6 / vmixRate / 2

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value.
	N int `json:"n"`
	// Spread is the relative IQR across the window's slices, where the
	// metric has a per-slice value.
	Spread float64 `json:"spread,omitempty"`
	// TailP and Tail are the highest percentile with at least ten
	// samples beyond it, for a median latency.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// result is one run of one workload, as printed and as stored in
// results.json.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Stale     int64            `json:"stale_reads"`
	Corrupt   int64            `json:"corrupt_reads"`
	Void      []string         `json:"void,omitempty"`
	Warn      []string         `json:"warn,omitempty"`
	FirstErr  string           `json:"first_error,omitempty"`
	E2E       map[string]value `json:"end_to_end"`
	Layer     map[string]value `json:"per_layer,omitempty"`
}

// delta is what one phase added to the counters.
type delta struct {
	secs       float64
	cpuUs      float64
	ops        float64
	byClass    [numClasses]float64
	reads      float64
	writes     float64
	renames    float64
	mallocs    float64
	gcPauseMs  float64
	cliFrames  float64
	cliBytes   float64
	srvFrames  float64
	ext        float64
	approval   float64
	bcast      float64
	lookupOut  float64
	readOut    float64
	writeOut   float64
	renameOut  float64
	grants     float64
	immediate  float64
	deferred   float64
	expiry     float64
	cliReads   float64
	cliHits    float64
	cliLookups float64
	invalid    float64
	sysReads   float64
	sysWrites  float64
	peerFrames float64
	peerBytes  float64
	redirects  float64
	elections  float64
	refused    float64
	crossed    float64
	flushes    float64
	flushedFr  float64
}

func between(a, b counters) delta {
	d := delta{
		secs:       b.at.Sub(a.at).Seconds(),
		cpuUs:      float64(b.cpu-a.cpu) / float64(time.Microsecond),
		mallocs:    float64(b.mallocs - a.mallocs),
		gcPauseMs:  float64(b.gcPause-a.gcPause) / float64(time.Millisecond),
		cliFrames:  float64(b.cliWire.frames - a.cliWire.frames),
		cliBytes:   float64(b.cliWire.bytes - a.cliWire.bytes),
		srvFrames:  float64(b.srvWire.frames - a.srvWire.frames),
		ext:        float64(b.srvWire.ext - a.srvWire.ext),
		approval:   float64(b.srvWire.approval - a.srvWire.approval),
		bcast:      float64(b.srvWire.bcast - a.srvWire.bcast),
		lookupOut:  float64(b.cliWire.lookupOut - a.cliWire.lookupOut),
		readOut:    float64(b.cliWire.readOut - a.cliWire.readOut),
		writeOut:   float64(b.cliWire.writeOut - a.cliWire.writeOut),
		renameOut:  float64(b.cliWire.renameOut - a.cliWire.renameOut),
		grants:     float64(b.srv.Grants - a.srv.Grants),
		immediate:  float64(b.srv.WritesImmediate - a.srv.WritesImmediate),
		deferred:   float64(b.srv.WritesDeferred - a.srv.WritesDeferred),
		expiry:     float64(b.srv.ExpiryReleases - a.srv.ExpiryReleases),
		cliReads:   float64(b.cli.Reads - a.cli.Reads),
		cliHits:    float64(b.cli.ReadHits - a.cli.ReadHits),
		cliLookups: float64(b.cli.Lookups - a.cli.Lookups),
		invalid:    float64(b.cli.Invalidations - a.cli.Invalidations),
		sysReads:   float64(b.sysReads - a.sysReads),
		sysWrites:  float64(b.sysWrites - a.sysWrites),
		peerFrames: float64(b.peerFrames - a.peerFrames),
		peerBytes:  float64(b.peerBytes - a.peerBytes),
		redirects:  float64(b.redirects - a.redirects),
		elections:  float64(b.elections - a.elections),
		refused:    float64(b.refused - a.refused),
		crossed:    float64(b.crossed - a.crossed),
		flushes:    float64(b.flushes - a.flushes),
		flushedFr:  b.flushedFr - a.flushedFr,
	}
	for cls := opClass(0); cls < numClasses; cls++ {
		n := float64(b.done[cls] - a.done[cls])
		d.byClass[cls] = n
		d.ops += n
		switch {
		case cls.isRead():
			d.reads += n
		case cls.isWrite():
			d.writes += n
		case cls.isRename():
			d.renames += n
		}
	}
	return d
}

// add sums two deltas field by field.
func (d delta) add(o delta) delta {
	d.secs += o.secs
	d.cpuUs += o.cpuUs
	d.ops += o.ops
	for i := range d.byClass {
		d.byClass[i] += o.byClass[i]
	}
	d.reads += o.reads
	d.writes += o.writes
	d.renames += o.renames
	d.mallocs += o.mallocs
	d.gcPauseMs += o.gcPauseMs
	d.cliFrames += o.cliFrames
	d.cliBytes += o.cliBytes
	d.srvFrames += o.srvFrames
	d.ext += o.ext
	d.approval += o.approval
	d.bcast += o.bcast
	d.lookupOut += o.lookupOut
	d.readOut += o.readOut
	d.writeOut += o.writeOut
	d.renameOut += o.renameOut
	d.grants += o.grants
	d.immediate += o.immediate
	d.deferred += o.deferred
	d.expiry += o.expiry
	d.cliReads += o.cliReads
	d.cliHits += o.cliHits
	d.cliLookups += o.cliLookups
	d.invalid += o.invalid
	d.sysReads += o.sysReads
	d.sysWrites += o.sysWrites
	d.peerFrames += o.peerFrames
	d.peerBytes += o.peerBytes
	d.redirects += o.redirects
	d.elections += o.elections
	d.refused += o.refused
	d.crossed += o.crossed
	d.flushes += o.flushes
	d.flushedFr += o.flushedFr
	return d
}

// ratio is a ÷ b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (pr *phaseResult) whole() delta { return between(pr.start, pr.end) }

// perSlice applies f to each slice's delta.
func (pr *phaseResult) perSlice(f func(delta) float64) []float64 {
	out := make([]float64, 0, len(pr.slices))
	prev := pr.start
	for _, s := range pr.slices {
		out = append(out, f(between(prev, s)))
		prev = s
	}
	return out
}

// window is the sum of the measured phases.
func (rd *runData) window() delta {
	var d delta
	for i := range rd.phases {
		d = d.add(rd.phases[i].whole())
	}
	return d
}

// rate is how many ops of one kind a phase completes per second. In a
// closed loop it is the 90th percentile of the per-slice rates: what
// the loop sustains while neither the collector nor a neighbour on the
// host is in its way. A run on this host has stretches of both, and the
// median over slices moves with how many slices they cover — twice as
// far from run to run as the 90th percentile does. In an open loop the
// schedule sets the rate and the slices' counts are Poisson; there the
// rate is completed ÷ elapsed.
func (rd *runData) rate(pr *phaseResult, count func(delta) float64) value {
	const unit = "1/s"
	if pr == nil {
		return value{Unit: unit}
	}
	v := pr.perSlice(func(d delta) float64 { return ratio(count(d), d.secs) })
	out := value{Unit: unit, N: len(v), Spread: relIQR(v)}
	if rd.pl.openLoop {
		d := pr.whole()
		out.Value = ratio(count(d), d.secs)
		return out
	}
	sort.Float64s(v)
	out.Value = percentile(v, 90)
	return out
}

// phaseMean is the mean over the measured phases of the p-th percentile
// of each phase's per-slice f, with the worst per-slice spread among the
// phases. The percentile over slices keeps a figure like CPU per op from
// swinging with how many of the collector's bursts, or a neighbour's,
// fell in the phase; the mean over phases weighs each kind of op the
// same however many of them a phase completed.
func (rd *runData) phaseMean(unit string, p float64, f func(delta) float64) value {
	var sum, spread float64
	n := 0
	for i := range rd.phases {
		slices := rd.phases[i].perSlice(f)
		if s := relIQR(slices); s > spread {
			spread = s
		}
		n += len(slices)
		sort.Float64s(slices)
		sum += percentile(slices, p)
	}
	return value{Value: sum / float64(len(rd.phases)), Unit: unit, N: n, Spread: spread}
}

func latencyValue(d digest) value {
	return value{Value: d.P50, Unit: "us", N: d.N, Spread: d.Spread, TailP: d.TailP, Tail: d.Tail}
}

func cpuPerOp(d delta) float64  { return ratio(d.cpuUs, d.ops) }
func msgsPerOp(d delta) float64 { return ratio(d.srvFrames, d.ops) }

// endToEndValues computes every end-to-end metric of the run.
func (rd *runData) endToEndValues() map[string]value {
	setups := make([]float64, len(rd.setups))
	for i, s := range rd.setups {
		setups[i] = s.Seconds()
	}
	return map[string]value{
		"setup_s":         {Value: median(setups), Unit: "s", N: len(setups)},
		"read_ops_s":      rd.rate(rd.phaseNamed("read"), func(d delta) float64 { return d.reads }),
		"write_ops_s":     rd.rate(rd.phaseNamed("write"), func(d delta) float64 { return d.writes }),
		"srv_msgs_per_op": rd.phaseMean("count", 50, msgsPerOp),
	}
}

// cpuUsPerOp is the process's CPU per op over the window: per phase the
// 10th percentile of the slices' figures, then the mean of the phases.
func (rd *runData) cpuUsPerOp() value { return rd.phaseMean("us", 10, cpuPerOp) }

// layerRow is one line of the layer table: a probe, how often an op
// makes the call, and what that comes to.
type layerRow struct {
	name   string
	ns     float64
	perOp  float64
	costUs float64
}

// layerTable prices one phase's ops from the probes: each row is an
// isolated cost times the calls per op the phase's counters show, and
// the residue is what the phase's CPU per op leaves unexplained.
func layerTable(d delta, pt probeTimes, sharded bool) (rows []layerRow, sumUs, residueUs float64) {
	perOp := func(n float64) float64 { return ratio(n, d.ops) }
	frames := perOp(d.cliFrames)
	add := func(name string, ns, calls float64) {
		rows = append(rows, layerRow{name: name, ns: ns, perOp: calls, costUs: ns * calls / 1e3})
	}
	// Every frame is encoded once by its sender, appended to one
	// coalescer and decoded once by its receiver.
	add("proto.encode_ns", pt.encode, frames)
	add("proto.decode_ns", pt.decode, frames)
	add("coalescer.append_ns", pt.appendFrame, frames)
	add("core.grant_ns", pt.grant, perOp(d.grants))
	add("core.write_clear_ns", pt.writeClear, perOp(d.immediate))
	add("core.write_approve_ns", pt.writeApprove, perOp(d.deferred))
	// The client checks a lease per path resolution and per read.
	add("core.holder_valid_ns", pt.holderValid, perOp(d.cliLookups+d.cliReads))
	// The server resolves the path and its parent for each lookup, and
	// both parents for each rename.
	add("vfs.lookup_ns", pt.vfsLookup, perOp(2*d.lookupOut+2*d.renameOut))
	add("vfs.read_ns", pt.vfsRead, perOp(d.readOut))
	add("vfs.write_ns", pt.vfsWrite, perOp(d.writeOut))
	add("vfs.rename_ns", pt.vfsRename, perOp(d.renameOut))
	if sharded {
		// The router looks each op up once; the server checks the owner
		// of each path a request names.
		add("shard.lookup_ns", pt.shardLookup, perOp(d.ops+d.lookupOut+2*d.renameOut))
	}
	add("client.hit_ns", pt.hit, perOp(d.byClass[clsHitRead]))
	for _, r := range rows {
		sumUs += r.costUs
	}
	return rows, sumUs, cpuPerOp(d) - sumUs
}

// perLayerValues computes every per-layer metric. The probes and span
// statistics among them are those of a traced run and 0 otherwise. ref
// is the untraced run of the same seed and window that precedes a
// traced one, the base of tracing.overhead_pct.
func (rd *runData) perLayerValues(ref *runData) map[string]value {
	w := rd.window()
	pt := rd.probes
	out := map[string]value{}
	set := func(name string, v float64, n int) { out[name] = value{Value: v, N: n} }
	nOps := int(w.ops)

	set("loadgen.late_p99_us", latePercentile(rd.late, 99), len(rd.late))
	set("loadgen.offered_ops_s", ratio(float64(rd.offered), w.secs), rd.offered)

	set("process.allocs_per_op", ratio(w.mallocs, w.ops), nOps)
	set("process.gc_pause_ms", w.gcPauseMs, 1)
	set("process.rss_peak_mb", rd.rssPeakMB, 1)
	peak := 0
	for _, ph := range rd.phases {
		if ph.goroutines > peak {
			peak = ph.goroutines
		}
	}
	set("process.goroutines_peak", float64(peak), len(rd.phases)*sliceCount)
	out["process.cpu_us_per_op"] = rd.cpuUsPerOp()
	for _, name := range []string{"read", "write", "rename"} {
		// Only a phase that bears the name: a one-phase workload's CPU
		// per op is process.cpu_us_per_op already.
		if pr := rd.phaseNamed(name); pr != nil && pr.name == name && len(rd.phases) > 1 {
			d := pr.whole()
			set("process."+name+"_cpu_us", cpuPerOp(d), int(d.ops))
		}
	}

	set("client.hit_ns", pt.hit, pt.opsReplayed)
	set("client.hit_ratio", ratio(w.cliHits, w.cliReads), int(w.cliReads))
	// Round trips per miss where only reads run: the phase that reads.
	if pr := rd.phaseNamed("read"); pr != nil {
		d := pr.whole()
		set("client.rtts_per_miss", ratio(d.lookupOut+d.readOut, d.readOut), int(d.readOut))
	}
	set("client.write_syscalls_per_op", ratio(w.sysWrites, w.ops), nOps)
	set("client.read_syscalls_per_op", ratio(w.sysReads, w.ops), nOps)
	set("client.invalidations_per_write", ratio(w.invalid, w.writes), int(w.writes))
	set("client.crossed_writes_per_1k", 1000*ratio(w.crossed, w.writes), int(w.writes))
	lat := func(cls opClass) digest { return digestOf(rd.latencies(cls)) }
	miss, wr, shared, ren, xren := lat(clsMissRead), lat(clsWrite), lat(clsSharedWrite), lat(clsRename), lat(clsXRename)
	out["client.read_p50_us"], out["client.write_p50_us"] = latencyValue(miss), latencyValue(wr)
	set("client.read_p99_us", miss.P99, miss.N)
	set("client.write_p99_us", wr.P99, wr.N)
	set("client.shared_write_p50_us", shared.P50, shared.N)
	set("client.shared_write_p99_us", shared.P99, shared.N)
	set("client.rename_p50_us", ren.P50, ren.N)
	set("client.xrename_p50_us", xren.P50, xren.N)
	set("client.xrename_p99_us", xren.P99, xren.N)

	set("router.redirects", w.redirects, 1)
	if pr := rd.phaseNamed("rename"); pr != nil && pr.name == "rename" {
		out["router.rename_ops_s"] = rd.rate(pr, func(d delta) float64 { return d.renames })
	}

	set("proto.encode_ns", pt.encode, pt.framesProbed)
	set("proto.decode_ns", pt.decode, pt.framesProbed)
	set("proto.frames_per_op", ratio(w.cliFrames, w.ops), nOps)
	set("proto.bytes_per_op", ratio(w.cliBytes, w.ops), nOps)
	set("proto.ext_frames_per_op", ratio(w.ext, w.ops), nOps)
	set("proto.approval_frames_per_op", ratio(w.approval, w.ops), nOps)
	set("coalescer.append_ns", pt.appendFrame, pt.framesProbed)
	set("coalescer.frames_per_flush", ratio(w.flushedFr, w.flushes), int(w.flushes))

	set("core.grant_ns", pt.grant, pt.opsReplayed)
	set("core.write_clear_ns", pt.writeClear, pt.opsReplayed)
	set("core.write_approve_ns", pt.writeApprove, pt.opsReplayed)
	set("core.holder_valid_ns", pt.holderValid, pt.opsReplayed)
	set("core.leases_live", float64(rd.leasesLive), 1)
	set("core.writes_deferred_ratio", ratio(w.deferred, w.deferred+w.immediate), int(w.deferred+w.immediate))
	set("core.expiry_release_ratio", ratio(w.expiry, w.deferred), int(w.deferred))

	set("vfs.lookup_ns", pt.vfsLookup, pt.opsReplayed)
	set("vfs.read_ns", pt.vfsRead, pt.opsReplayed)
	set("vfs.write_ns", pt.vfsWrite, pt.opsReplayed)
	set("vfs.rename_ns", pt.vfsRename, pt.opsReplayed)

	set("classes.members", float64(rd.classMemb), 1)
	set("classes.bcast_frames_per_s", ratio(w.bcast, w.secs), int(w.bcast))
	set("classes.inst_hit_ratio", ratio(float64(rd.instHits), float64(rd.instReads)), int(rd.instReads))

	set("replica.peer_frames_per_write", ratio(w.peerFrames, w.writes), int(w.writes))
	set("replica.peer_bytes_per_write", ratio(w.peerBytes, w.writes), int(w.writes))
	set("replica.elections", w.elections, 1)
	set("replica.write_refusals_per_1k", 1000*ratio(w.refused, w.writes), int(w.writes))
	if rd.failoverMs > 0 {
		set("replica.failover_ms", rd.failoverMs, 1)
	}
	set("shard.lookup_ns", pt.shardLookup, pt.opsReplayed)

	st := spanStats(rd.rows, rd.phases)
	fromSpan := func(metric, span string) { set(metric, st[span].p50us, st[span].n) }
	fromSpan("core.defer_wait_p50_us", "write.defer")
	fromSpan("replica.ship_p50_us", "repl.ship")
	fromSpan("shard.prepare_p50_us", "shard.prepare")
	fromSpan("shard.commit_p50_us", "shard.commit")
	for _, op := range []string{"read", "write", "lookup"} {
		s := st["server."+op]
		set("server."+op+"_self_us", s.selfP50us, s.n)
	}
	set("replica.quorum_wait_p50_us", rd.quorumP50, int(w.writes))

	if rd.p.traced {
		// Without probes there is nothing to subtract.
		var residue float64
		for i := range rd.phases {
			_, _, r := layerTable(rd.phases[i].whole(), pt, rd.pl.kind == topo.Shard2)
			residue += r
		}
		set("server.residue_us", residue/float64(len(rd.phases)), nOps)
		set("tracing.span_ns", pt.span, 20_000)
		set("tracing.reject_ns", pt.reject, 20_000)
	}
	if ref != nil {
		rw := ref.window()
		set("tracing.header_bytes_per_op", ratio(w.cliBytes, w.ops)-ratio(rw.cliBytes, rw.ops), nOps)
		base := ref.cpuUsPerOp().Value
		set("tracing.overhead_pct", 100*ratio(rd.cpuUsPerOp().Value-base, base), nOps)
	}

	// Every catalogued metric is reported, with its unit; what the
	// workload has no use for stays 0.
	for _, def := range perLayer {
		v := out[def.name]
		v.Unit = def.unit
		out[def.name] = v
	}
	return out
}

// void lists why the run does not measure what the workload claims to:
// by-construction properties that did not hold. An empty list and no
// failed op make the run correct. warn lists what makes its figures
// doubtful without making them wrong.
func (rd *runData) void() (void, warn []string) {
	w := rd.window()
	if w.elections > 0 {
		void = append(void, fmt.Sprintf("%v elections inside the window", w.elections))
	}
	if w.redirects > 0 {
		void = append(void, fmt.Sprintf("%v router redirects inside the window", w.redirects))
	}
	for i := range rd.phases {
		if d := rd.phases[i].whole(); d.ops == 0 {
			void = append(void, fmt.Sprintf("phase %s completed no op", rd.phases[i].name))
		}
	}
	switch rd.w.name {
	case "single_sat", "repl_write":
		if w.deferred > 0 {
			void = append(void, fmt.Sprintf("%v writes deferred: the files are not private", w.deferred))
		}
	}
	if rd.p.sizeDiv > 1 {
		// What follows needs the specified sizes and a window of seconds.
		return void, nil
	}
	// A cycle through the cold set outlasts the lease term.
	if pr := rd.phaseNamed("read"); pr != nil && pr.name == "read" {
		if hits := pr.whole().cliHits; hits > 0 {
			void = append(void, fmt.Sprintf("%v cache hits in the cold scan", hits))
		}
	}
	if rd.pl.openLoop {
		if rd.classMemb != vmixClassMembers {
			void = append(void, fmt.Sprintf("installed class has %d members, want %d", rd.classMemb, vmixClassMembers))
		}
		if done := w.ops + float64(rd.failed); math.Abs(done-float64(rd.offered)) > 0.01*float64(rd.offered) {
			void = append(void, fmt.Sprintf("%d ops offered, %v completed", rd.offered, w.ops))
		}
		// Lateness is the host's doing as much as the generator's — a
		// halted vCPU takes its time to wake — so it warns, not voids.
		if p99 := latePercentile(rd.late, 99); p99 > lateLimitUs {
			warn = append(warn, fmt.Sprintf("generator lateness p99 %.0fµs exceeds %.0fµs: latencies include it", p99, lateLimitUs))
		}
	}
	return void, warn
}

// latePercentile is a percentile of the open loop's issue − due, in µs;
// 0 for a closed loop.
func latePercentile(late []time.Duration, p float64) float64 {
	if len(late) == 0 {
		return 0
	}
	us := make([]float64, len(late))
	for i, l := range late {
		us[i] = float64(l) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	return percentile(us, p)
}

// toResult reduces the run to its printed form. ref, when the run is
// traced, is its untraced reference run.
func (rd *runData) toResult(ref *runData) result {
	r := result{
		Workload: rd.w.name, Seed: rd.p.seed, Seconds: rd.p.seconds, Traced: rd.p.traced,
		Attempted: rd.attempted, Failed: rd.failed, Stale: rd.stale, Corrupt: rd.corrupt,
		FirstErr: rd.firstErr,
		E2E:      rd.endToEndValues(),
	}
	r.Void, r.Warn = rd.void()
	r.Layer = rd.perLayerValues(ref)
	r.Correct = r.Failed == 0 && len(r.Void) == 0
	for _, def := range endToEnd {
		if v := r.E2E[def.name]; v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Correct = false
			r.Void = append(r.Void, fmt.Sprintf("%s is %v", def.name, v.Value))
		}
	}
	return r
}
