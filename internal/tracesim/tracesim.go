// Package tracesim is the trace-driven simulator of §3.2: it replays a
// workload trace against the lease protocol (internal/core) over the
// simulated network (internal/netsim) and measures exactly what the
// paper measures — consistency-related messages handled by the server
// and the delay consistency adds to each read and write.
//
// The "Trace" curve of Figure 1 is this simulator run over a bursty
// V-like workload; the analytic curves are validated against it in the
// package tests (the simulated Poisson workload must track formula (1)
// closely, while burstier traces show the sharper knee the paper
// predicts).
package tracesim

import (
	"fmt"
	"time"

	"leases/internal/clock"
	"leases/internal/netsim"
	"leases/internal/sim"
	"leases/internal/stats"
	"leases/internal/trace"
	"leases/internal/vfs"
)

// InstalledConfig enables the §4 installed-files optimization.
type InstalledConfig struct {
	// Term granted by each multicast extension.
	Term time.Duration
	// Period between extensions. Must be below Term or leases lapse
	// between extensions.
	Period time.Duration
}

// FaultKind enumerates injectable failures.
type FaultKind uint8

// Fault kinds.
const (
	ClientCrash FaultKind = iota + 1
	ClientRestart
	ServerCrash
	ServerRestart
	PartitionClient // cut the client↔server link
	HealClient
)

// Fault schedules one failure event.
type Fault struct {
	Kind FaultKind
	// At is the offset from trace start.
	At time.Duration
	// Client selects the affected client (ignored for server faults).
	Client int
}

// Config parameterizes a simulation run.
type Config struct {
	// Trace is the workload to replay. Required.
	Trace *trace.Trace
	// Term is the lease term t_s the server grants on every grant, the
	// paper's rule: renewals are not stretched as the TCP server's are
	// (core.WithReuseStretch). 0 is the zero-term baseline and
	// core.Infinite the callback baseline.
	Term time.Duration
	// Net is the message fabric model (m_prop, m_proc, loss, seed).
	Net netsim.Params
	// Allowance is ε.
	Allowance time.Duration
	// BatchExtension makes a miss extend every lease the cache holds in
	// one request rather than just the missed datum (§3.1 option).
	BatchExtension bool
	// AnticipatoryLead, when positive, makes clients renew leases that
	// will expire within the lead, checking twice per lead (§4 option:
	// better response time, more server load).
	AnticipatoryLead time.Duration
	// Installed enables the installed-files optimization for the files
	// the trace marks installed.
	Installed *InstalledConfig
	// Faults to inject.
	Faults []Fault
	// RetryTimeout and MaxRetries govern client retransmission. Zero
	// values mean 4×RTT and 10.
	RetryTimeout time.Duration
	MaxRetries   int
	// DetailedRecovery makes a restarting server restore a persisted
	// lease snapshot instead of waiting out the maximum granted term
	// (the §2 alternative).
	DetailedRecovery bool
	// UnicastApprovals sends one approval request per leaseholder
	// instead of a single multicast — the ablation behind the paper's
	// footnote "Without multicast, it would require 2(S−1) messages"
	// and the α_unicast = R/((S−1)W) benefit factor.
	UnicastApprovals bool
	// ClientClockRate, when non-nil, gives client i a clock running at
	// rate ClientClockRate[i] relative to true time (1.0 = perfect;
	// <1 slow, >1 fast). ServerClockRate does the same for the server;
	// zero means 1.0. These inject the §5 clock failures: a fast server
	// clock or slow client clock can violate consistency (observable as
	// StaleReads); the opposite errors only add traffic.
	ClientClockRate []float64
	ServerClockRate float64
}

// Result reports what the run measured.
type Result struct {
	// Duration is the virtual time simulated (trace duration plus
	// drain).
	Duration time.Duration
	// ServerConsistencyMsgs counts lease-protocol messages handled
	// (sent or received) by the server — formula (1)'s quantity.
	ServerConsistencyMsgs int64
	// ServerTotalMsgs counts all messages handled by the server.
	ServerTotalMsgs int64
	// ConsistencyLoad is ServerConsistencyMsgs per second.
	ConsistencyLoad float64
	// Reads/Writes are completed operations; CacheHits are reads served
	// from cache under a valid lease.
	Reads, Writes, CacheHits int64
	// StaleReads counts consistency violations observed (cache hits
	// whose version lagged the server). Zero in every non-Byzantine
	// run; clock-failure experiments make it positive.
	StaleReads int64
	// ReadDelay and WriteDelay summarize the delay consistency added to
	// each operation (reads: 0 on hit, round trip on miss; writes: time
	// beyond the base round trip).
	ReadDelay, WriteDelay DelaySummary
	// AddedDelayMean is formula (2)'s quantity: mean added delay over
	// all reads and writes.
	AddedDelayMean time.Duration
	// WriteWaits summarizes server-side write deferrals.
	WriteWaits DelaySummary
	// LostMessages and PartitionDrops report fabric-level failures.
	LostMessages, PartitionDrops int64
	// GivenUpOps counts operations abandoned after MaxRetries.
	GivenUpOps int64
	// MaxLeaseRecords is the peak number of lease records at the server.
	MaxLeaseRecords int
}

// DelaySummary is a compact distribution summary.
type DelaySummary struct {
	Count          int64
	Mean, Min, Max time.Duration
}

func summarize(d *stats.DurationStat) DelaySummary {
	return DelaySummary{Count: d.Count(), Mean: d.Mean(), Min: d.Min(), Max: d.Max()}
}

// Run executes the simulation.
func Run(cfg Config) *Result {
	if cfg.Trace == nil {
		panic("tracesim: nil trace")
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 4 * cfg.Net.RoundTrip()
		if cfg.RetryTimeout == 0 {
			cfg.RetryTimeout = time.Second
		}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	s := newSimulation(cfg)
	s.scheduleTrace()
	s.scheduleFaults()
	s.engine.Run()
	return s.result()
}

// simulation wires the server, clients, fabric and accounting together.
type simulation struct {
	cfg     Config
	engine  *sim.Engine
	fabric  *netsim.Fabric
	server  *simServer
	clients []*simClient

	readDelay  stats.DurationStat
	writeDelay stats.DurationStat
	writeWaits stats.DurationStat
	reads      stats.Counter
	writes     stats.Counter
	hits       stats.Counter
	stale      stats.Counter
	givenUp    stats.Counter
	start      time.Time
	end        time.Time
}

func newSimulation(cfg Config) *simulation {
	engine := sim.New(clock.Epoch)
	fabric := netsim.New(engine, cfg.Net)
	s := &simulation{cfg: cfg, engine: engine, fabric: fabric, start: clock.Epoch}
	s.server = newSimServer(s)
	for i := 0; i < cfg.Trace.Clients; i++ {
		s.clients = append(s.clients, newSimClient(s, i))
	}
	return s
}

func datumForFile(f uint32) vfs.Datum {
	return vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(f) + 2} // root is 1
}

func clientNode(i int) netsim.NodeID {
	return netsim.NodeID(fmt.Sprintf("c%d", i))
}

const serverNode netsim.NodeID = "srv"

func (s *simulation) scheduleTrace() {
	for _, e := range s.cfg.Trace.Events {
		e := e
		s.engine.At(s.start.Add(e.At), func() {
			c := s.clients[e.Client]
			switch e.Op {
			case trace.OpRead:
				c.read(datumForFile(e.File))
			case trace.OpWrite:
				c.write(datumForFile(e.File))
			}
		})
	}
	s.end = s.start.Add(s.cfg.Trace.Duration)
}

func (s *simulation) scheduleFaults() {
	for _, f := range s.cfg.Faults {
		f := f
		s.engine.At(s.start.Add(f.At), func() {
			switch f.Kind {
			case ClientCrash:
				s.clients[f.Client].crash()
			case ClientRestart:
				s.clients[f.Client].restart()
			case ServerCrash:
				s.server.crash()
			case ServerRestart:
				s.server.restart()
			case PartitionClient:
				s.fabric.CutLink(clientNode(f.Client), serverNode)
			case HealClient:
				s.fabric.HealLink(clientNode(f.Client), serverNode)
			}
		})
	}
}

func (s *simulation) now() time.Time { return s.engine.Now() }

// localTime maps true time onto a drifting local clock that read start
// at the true instant start.
func localTime(start, now time.Time, rate float64) time.Time {
	if rate == 0 || rate == 1 {
		return now
	}
	return start.Add(time.Duration(float64(now.Sub(start)) * rate))
}

// trueTime inverts localTime: the true instant at which the drifting
// clock will read local.
func trueTime(start, local time.Time, rate float64) time.Time {
	if rate == 0 || rate == 1 {
		return local
	}
	return start.Add(time.Duration(float64(local.Sub(start)) / rate))
}

func (s *simulation) result() *Result {
	duration := s.engine.Now().Sub(s.start)
	if duration < s.cfg.Trace.Duration {
		duration = s.cfg.Trace.Duration
	}
	r := &Result{
		Duration:              duration,
		ServerConsistencyMsgs: s.fabric.Handled(serverNode, consistencyPrefix),
		ServerTotalMsgs:       s.fabric.Handled(serverNode, ""),
		Reads:                 s.reads.Value(),
		Writes:                s.writes.Value(),
		CacheHits:             s.hits.Value(),
		StaleReads:            s.stale.Value(),
		ReadDelay:             summarize(&s.readDelay),
		WriteDelay:            summarize(&s.writeDelay),
		WriteWaits:            summarize(&s.writeWaits),
		LostMessages:          s.fabric.Losses(),
		PartitionDrops:        s.fabric.PartitionDrops(),
		GivenUpOps:            s.givenUp.Value(),
		MaxLeaseRecords:       s.server.maxLeaseRecords,
	}
	r.ConsistencyLoad = float64(r.ServerConsistencyMsgs) / s.cfg.Trace.Duration.Seconds()
	total := s.readDelay.Sum() + s.writeDelay.Sum()
	ops := s.readDelay.Count() + s.writeDelay.Count()
	if ops > 0 {
		r.AddedDelayMean = total / time.Duration(ops)
	}
	return r
}
