// Package check is a deterministic model checker for the lease
// protocol. It runs the real protocol pieces — the sharded lease
// manager (internal/core), a server and client faithful to the TCP
// deployment's semantics — on the simulated substrate (internal/sim,
// internal/netsim) and checks every completed operation against an
// independent sequential-consistency oracle.
//
// A Scenario is a complete, replayable description of one execution:
// the topology, the clock behaviour of every node, the operation
// trace, and the fault schedule. Scenarios are generated from a seed
// (random mode), enumerated exhaustively over a bounded alphabet
// (exhaustive mode), or loaded from JSON counterexample artifacts.
// Equal scenarios produce byte-identical executions, which is what
// makes shrinking and regression replay possible.
package check

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// OpKind classifies a client operation.
type OpKind string

// Client operations: a read consults the cache and fetches on a miss,
// a write submits a new value, an extend renews every held lease (the
// explicit batch extension of §3.1).
const (
	OpRead   OpKind = "read"
	OpWrite  OpKind = "write"
	OpExtend OpKind = "extend"
	// OpRename (sharded worlds only) asks the file's owning group to
	// move it to the other group — the model's cross-shard rename. The
	// source master must obtain §2 clearance on the file (conflicting
	// leaseholders approve or expire) before ownership transfers.
	OpRename OpKind = "rename"
)

// Op is one step of the operation trace.
type Op struct {
	// At is the virtual offset from the scenario start.
	At     time.Duration `json:"at"`
	Client int           `json:"client"`
	// File indexes the target file; ignored for extends.
	File int    `json:"file,omitempty"`
	Kind OpKind `json:"kind"`
}

// FaultKind classifies a fault-schedule entry.
type FaultKind string

// Fault kinds drawn by the schedule grammar. Window faults (partition,
// loss, delay, drop) are active during [At, At+Dur); crash faults take
// the node down at At and restart it at At+Dur.
const (
	// FaultPartition cuts the link between one client and the server.
	FaultPartition FaultKind = "partition"
	// FaultClientCrash crashes a client, losing its volatile state
	// (cache, leases, in-flight requests); it restarts with a fresh
	// incarnation.
	FaultClientCrash FaultKind = "client-crash"
	// FaultServerCrash crashes the server, losing lease state but not
	// storage; on restart it honours the durable max-term recovery
	// window (§5).
	FaultServerCrash FaultKind = "server-crash"
	// FaultDrop discards every matching message in the window.
	FaultDrop FaultKind = "drop"
	// FaultDelay adds Extra latency to every matching message in the
	// window, reordering it against later traffic.
	FaultDelay FaultKind = "delay"
	// FaultLoss drops each message in the window with probability Rate.
	FaultLoss FaultKind = "loss"
	// FaultMasterCrash (replicated worlds only) crashes whichever
	// replica holds the master lease at At and restarts it at At+Dur;
	// a no-op if no replica is master at At.
	FaultMasterCrash FaultKind = "master-crash"
	// FaultAsymPartition (replicated worlds only) asymmetrically
	// partitions the replica that is master at At: everything it SENDS
	// is held in flight and delivered just after the window closes,
	// while everything addressed to it still arrives — the shape under
	// which a master must step down on its own clock, and under which
	// its stale frames arrive late and must be rejected by fencing.
	FaultAsymPartition FaultKind = "asym-partition"
)

// Fault is one entry of the fault schedule.
type Fault struct {
	Kind FaultKind     `json:"kind"`
	At   time.Duration `json:"at"`
	Dur  time.Duration `json:"dur"`
	// Client selects the affected client for partition, client-crash,
	// drop, and delay faults.
	Client int `json:"client,omitempty"`
	// Server selects the affected replica for server-crash faults and
	// the far end of partition/drop/delay faults in replicated worlds
	// (ignored when Servers <= 1; master-crash and asym-partition
	// resolve their target dynamically instead).
	Server int `json:"server,omitempty"`
	// Group selects the replica group whose master a master-crash or
	// asym-partition fault targets in sharded worlds (Groups > 1);
	// ignored otherwise.
	Group int `json:"group,omitempty"`
	// MsgKind, when non-empty, restricts drop/delay to one message
	// class (e.g. "lease.grant"); empty matches every kind.
	MsgKind string `json:"msg_kind,omitempty"`
	// ToServer selects the direction for drop/delay: client→server
	// when true, server→client when false.
	ToServer bool `json:"to_server,omitempty"`
	// Extra is the added latency for delay faults.
	Extra time.Duration `json:"extra,omitempty"`
	// Rate is the drop probability for loss faults.
	Rate float64 `json:"rate,omitempty"`
}

// Deliberate protocol breaks, enabled through Scenario.Break. Each
// disables one safety mechanism so the oracle can demonstrate it is
// load-bearing; the model checker proper always runs with Break empty.
const (
	// BreakWriteDefer applies writes immediately instead of deferring
	// them behind conflicting leases — the §2 invariant's enforcement
	// point.
	BreakWriteDefer = "write-defer"
	// BreakFence disables the invalidation fence: grant and ack replies
	// that crossed an approval push on the wire are cached anyway,
	// resurrecting invalidated leases (the PR 4 reorder race).
	BreakFence = "fence"
	// BreakAllowance sets the client's clock allowance ε to zero, so
	// drifted clocks make the client trust expired leases.
	BreakAllowance = "allowance"
	// BreakQuiet removes the failover waiting discipline: restarted
	// replicas rejoin elections immediately (amnesiac about the
	// promises their previous incarnation made), and a freshly
	// promoted master serves without the §5 recovery window. The first
	// shortcut lets two amnesiac acceptors elect a second master while
	// the first one's lease is still running — the diskless split
	// brain the PaxosLease quiet period exists to prevent. The second
	// embodies the belief that mastership alone makes failover safe:
	// the usurper applies writes inside leases the deposed master
	// granted and never told it about.
	BreakQuiet = "quiet"
	// BreakClassHorizon (installed worlds only) demotes a written file
	// from the installed class but applies the write immediately instead
	// of waiting out the broadcast coverage horizon — the §4.3
	// drop-on-write discipline's enforcement point. Clients whose class
	// coverage is still live then read the old value from cache after
	// the write was acknowledged.
	BreakClassHorizon = "class-horizon"
	// BreakRenameOrder (sharded worlds only) sends a cross-shard
	// rename's move before the source's §2 clearance: the source answers
	// its own approval step on the holders' behalf and the bytes leave at
	// once. Read leases the source granted stay live across the ownership
	// transfer, so a holder's cache hit can return the pre-move value
	// after a post-move write was acknowledged on the destination — the
	// stale read the clear-then-move order exists to prevent.
	BreakRenameOrder = "rename-order"
	// BreakRefillEarly builds a refill when the holder's approval arrives —
	// the file as it is then, before the write it approved applies — and
	// grants it on the holder's next reply as usual. The holder then caches
	// the old contents under a fresh lease and serves them after the write
	// was acknowledged: the stale read reading the file only at the grant
	// prevents.
	BreakRefillEarly = "refill-early"
	// BreakTermFloor (replicated worlds only) has every replica raise
	// its term floor to the policy term alone, not to the configured
	// ceiling a renewal stretches to (srvcore.Config.Ceiling). A
	// failover's recovery window is then shorter than a stretched lease
	// the deposed master granted, and the new master applies a write the
	// holder still reads from its cache.
	BreakTermFloor = "term-floor"
)

// Scenario fully determines one model-checked execution.
type Scenario struct {
	Seed    int64 `json:"seed"`
	Clients int   `json:"clients"`
	Files   int   `json:"files"`
	// Servers is the replica-set size PER GROUP; 1 (the default) runs
	// the original single-server world, >1 runs a PaxosLease replica
	// set: one election Machine per server, master-only lease granting,
	// replicate-before-apply writes, and promotion state sync.
	Servers int `json:"servers,omitempty"`
	// Groups is the number of replica groups the namespace is sharded
	// across; 0/1 (the default) runs the unsharded world. With Groups >
	// 1 every group runs its own Servers-replica set (its own elections,
	// its own replication pipeline), file f starts homed at group
	// f%Groups, clients route by a per-file home belief steered by
	// NOT_OWNER redirects, and OpRename moves files between groups via
	// a clear-then-move protocol between the two groups' masters.
	Groups int `json:"groups,omitempty"`

	// Term is the fixed lease term t_s; Allowance is the clock bound ε
	// clients subtract.
	Term      time.Duration `json:"term"`
	Allowance time.Duration `json:"allowance"`

	// Prop, Proc, Jitter parameterize the fabric (§3.1 cost model).
	Prop   time.Duration `json:"prop"`
	Proc   time.Duration `json:"proc"`
	Jitter time.Duration `json:"jitter,omitempty"`

	// ClientRate/ClientSkew and ServerRate/ServerSkew describe each
	// node's clock: local = start + rate·(true−start) + skew. A zero
	// rate means 1 (well-behaved).
	ClientRate []float64       `json:"client_rate,omitempty"`
	ClientSkew []time.Duration `json:"client_skew,omitempty"`
	ServerRate float64         `json:"server_rate,omitempty"`
	ServerSkew time.Duration   `json:"server_skew,omitempty"`
	// ServerRates/ServerSkews give each replica its own clock in
	// replicated worlds; entries default to the scalar
	// ServerRate/ServerSkew above, which stays authoritative for
	// single-server scenarios.
	ServerRates []float64       `json:"server_rates,omitempty"`
	ServerSkews []time.Duration `json:"server_skews,omitempty"`

	// Installed enables the §4.3 installed-files class in the model:
	// every file starts installed, the serving server multicasts
	// periodic broadcast extensions (generation + class term, stamped
	// with its local clock — the TBroadcastExt frame), clients fetch
	// the membership snapshot on a generation mismatch (TInstalled /
	// TInstalledRep), and the first write to an installed file demotes
	// it and waits out the broadcast coverage horizon before applying.
	Installed bool `json:"installed,omitempty"`
	// InstalledTerm is the class term broadcast extensions carry;
	// defaults to 2·Term. BroadcastEvery is the broadcast cadence;
	// defaults to Term/4.
	InstalledTerm  time.Duration `json:"installed_term,omitempty"`
	BroadcastEvery time.Duration `json:"broadcast_every,omitempty"`
	// QuietAfterWrite is how long after a write a file stays out of the
	// class; defaults to InstalledTerm. Shorter than the coverage horizon a
	// write waits out, it lets reads re-promote a file while its write is
	// still in flight.
	QuietAfterWrite time.Duration `json:"quiet_after_write,omitempty"`

	Ops    []Op    `json:"ops"`
	Faults []Fault `json:"faults,omitempty"`

	// Break selects a deliberate protocol break (see Break* constants);
	// empty runs the honest protocol.
	Break string `json:"break,omitempty"`
}

// Steps counts the schedule entries the shrinker minimizes over.
func (sc Scenario) Steps() int { return len(sc.Ops) + len(sc.Faults) }

// groups normalizes the group count (0 means unsharded).
func (sc Scenario) groups() int {
	if sc.Groups > 1 {
		return sc.Groups
	}
	return 1
}

// withDefaults fills zero fields with the standard model parameters.
func (sc Scenario) withDefaults() Scenario {
	if sc.Clients == 0 {
		sc.Clients = 3
	}
	if sc.Files == 0 {
		sc.Files = 2
	}
	if sc.Term == 0 {
		sc.Term = 250 * time.Millisecond
	}
	if sc.Allowance == 0 && sc.Break != BreakAllowance {
		sc.Allowance = 40 * time.Millisecond
	}
	if sc.Prop == 0 {
		sc.Prop = 2 * time.Millisecond
	}
	if sc.Proc == 0 {
		sc.Proc = 100 * time.Microsecond
	}
	if sc.Servers == 0 {
		sc.Servers = 1
	}
	if sc.ServerRate == 0 {
		sc.ServerRate = 1
	}
	for len(sc.ServerRates) < sc.Servers*sc.groups() {
		sc.ServerRates = append(sc.ServerRates, sc.ServerRate)
	}
	for len(sc.ServerSkews) < sc.Servers*sc.groups() {
		sc.ServerSkews = append(sc.ServerSkews, sc.ServerSkew)
	}
	for i, r := range sc.ServerRates {
		if r == 0 {
			sc.ServerRates[i] = 1
		}
	}
	for len(sc.ClientRate) < sc.Clients {
		sc.ClientRate = append(sc.ClientRate, 1)
	}
	for len(sc.ClientSkew) < sc.Clients {
		sc.ClientSkew = append(sc.ClientSkew, 0)
	}
	for i, r := range sc.ClientRate {
		if r == 0 {
			sc.ClientRate[i] = 1
		}
	}
	if sc.Installed {
		if sc.InstalledTerm == 0 {
			sc.InstalledTerm = 2 * sc.Term
		}
		if sc.BroadcastEvery == 0 {
			sc.BroadcastEvery = sc.Term / 4
		}
	}
	return sc
}

// Validate rejects scenarios the world cannot run.
func (sc Scenario) Validate() error {
	if sc.Clients < 1 || sc.Files < 1 {
		return fmt.Errorf("check: scenario needs at least one client and one file (%d/%d)", sc.Clients, sc.Files)
	}
	for i, op := range sc.Ops {
		if op.Client < 0 || op.Client >= sc.Clients {
			return fmt.Errorf("check: op %d targets client %d of %d", i, op.Client, sc.Clients)
		}
		if op.Kind != OpExtend && (op.File < 0 || op.File >= sc.Files) {
			return fmt.Errorf("check: op %d targets file %d of %d", i, op.File, sc.Files)
		}
		if op.Kind == OpRename && sc.groups() < 2 {
			return fmt.Errorf("check: op %d (%s) needs a sharded world (Groups >= 2)", i, op.Kind)
		}
		if op.At < 0 {
			return fmt.Errorf("check: op %d scheduled before start", i)
		}
	}
	if sc.Break == BreakTermFloor && sc.Servers < 2 {
		return fmt.Errorf("check: break %q needs a replicated world (Servers >= 2)", sc.Break)
	}
	if sc.Break == BreakRenameOrder && sc.groups() < 2 {
		return fmt.Errorf("check: break %q needs a sharded world (Groups >= 2)", sc.Break)
	}
	if sc.Installed && sc.groups() > 1 {
		// The §4.3 class broadcast has no group identity; combining it
		// with sharding is out of the checked matrix.
		return fmt.Errorf("check: installed-class scenarios do not support sharding (Groups > 1)")
	}
	if sc.Break == BreakClassHorizon && !sc.Installed {
		return fmt.Errorf("check: break %q needs an installed-class scenario", sc.Break)
	}
	if sc.InstalledTerm < 0 || sc.BroadcastEvery < 0 || sc.QuietAfterWrite < 0 {
		return fmt.Errorf("check: negative installed-class timing")
	}
	servers := sc.Servers
	if servers == 0 {
		servers = 1
	}
	total := servers * sc.groups()
	for i, ft := range sc.Faults {
		if ft.At < 0 || ft.Dur < 0 {
			return fmt.Errorf("check: fault %d has negative timing", i)
		}
		switch ft.Kind {
		case FaultPartition, FaultClientCrash, FaultDrop, FaultDelay:
			if ft.Client < 0 || ft.Client >= sc.Clients {
				return fmt.Errorf("check: fault %d targets client %d of %d", i, ft.Client, sc.Clients)
			}
		case FaultServerCrash, FaultLoss:
		case FaultMasterCrash, FaultAsymPartition:
			if servers < 2 {
				return fmt.Errorf("check: fault %d (%s) needs a replicated world", i, ft.Kind)
			}
		default:
			return fmt.Errorf("check: fault %d has unknown kind %q", i, ft.Kind)
		}
		if ft.Group < 0 || ft.Group >= sc.groups() {
			return fmt.Errorf("check: fault %d targets group %d of %d", i, ft.Group, sc.groups())
		}
		if ft.Server < 0 || ft.Server >= total {
			return fmt.Errorf("check: fault %d targets server %d of %d", i, ft.Server, total)
		}
	}
	return nil
}

// clone deep-copies the scenario so shrink candidates never alias.
func (sc Scenario) clone() Scenario {
	out := sc
	out.Ops = append([]Op(nil), sc.Ops...)
	out.Faults = append([]Fault(nil), sc.Faults...)
	out.ClientRate = append([]float64(nil), sc.ClientRate...)
	out.ClientSkew = append([]time.Duration(nil), sc.ClientSkew...)
	out.ServerRates = append([]float64(nil), sc.ServerRates...)
	out.ServerSkews = append([]time.Duration(nil), sc.ServerSkews...)
	return out
}

// MarshalIndentJSON renders the scenario as a stable, human-readable
// artifact.
func (sc Scenario) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// Profile names a fault grammar for the generator.
type Profile string

// Generator profiles. Drift perturbs clocks only; partition exercises
// links (cuts, loss, targeted delays); crash exercises node failures;
// all unions the three.
const (
	ProfileDrift     Profile = "drift"
	ProfilePartition Profile = "partition"
	ProfileCrash     Profile = "crash"
	ProfileAll       Profile = "all"
)

// GenConfig bounds the generator.
type GenConfig struct {
	Clients int
	Files   int
	// Servers > 1 generates replicated scenarios: failover faults
	// (master crash, asymmetric master partition, follower crashes) and
	// independent per-replica clock drift at the ε budget.
	Servers int
	// Groups > 1 generates sharded scenarios: cross-shard renames in
	// the op mix (so other clients' routing beliefs go stale and must
	// converge via NOT_OWNER redirects), and failover faults that name
	// a target group.
	Groups int
	// Installed generates installed-class scenarios: broadcast
	// extensions, snapshot fetches, and drop-on-write demotion run
	// alongside the ordinary op trace and fault schedule.
	Installed bool
	Ops       int
	Horizon   time.Duration
	Term      time.Duration
	Allowance time.Duration
	Profile   Profile
}

func (cfg GenConfig) withDefaults() GenConfig {
	if cfg.Clients == 0 {
		cfg.Clients = 3
	}
	if cfg.Files == 0 {
		cfg.Files = 2
	}
	if cfg.Servers == 0 {
		cfg.Servers = 1
	}
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	if cfg.Ops == 0 {
		cfg.Ops = 24
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 3 * time.Second
		if cfg.Servers > 1 {
			// Replicated runs spend the first election term electing a
			// master and a failover mid-run; give the workload room.
			cfg.Horizon = 4 * time.Second
		}
	}
	if cfg.Term == 0 {
		cfg.Term = 250 * time.Millisecond
	}
	if cfg.Allowance == 0 {
		cfg.Allowance = 40 * time.Millisecond
	}
	if cfg.Profile == "" {
		cfg.Profile = ProfileAll
	}
	return cfg
}

func randDur(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)))
}

// delayableKinds are the message classes a targeted delay fault may
// single out; they mirror the model's wire kinds.
var delayableKinds = []string{
	kindGrant, kindApprovalReq, kindApprove, kindAck, kindExtend, kindWrite,
}

// Generate derives a scenario from a seed under the given bounds.
// Equal (seed, cfg) pairs generate equal scenarios.
func Generate(seed int64, cfg GenConfig) Scenario {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:      seed,
		Clients:   cfg.Clients,
		Files:     cfg.Files,
		Servers:   cfg.Servers,
		Term:      cfg.Term,
		Allowance: cfg.Allowance,
		Installed: cfg.Installed,
	}
	if cfg.Groups > 1 {
		sc.Groups = cfg.Groups
	}
	sc = sc.withDefaults()

	// Operation trace: uniform times over the first 80% of the horizon
	// (the tail lets deferred writes and retries drain), weighted
	// read-heavy like the paper's workload. Some slots expand into
	// pipelined bursts — several operations one client issues at the
	// same instant, so its requests are concurrently in flight the way
	// the deployment's futures API (StartRead/StartWrite) drives the
	// wire — and some into contention pairs: a read and a write of the
	// same file from two clients at the same instant, the shape of the
	// reorder race the invalidation fence guards (an approval push
	// overtaking a grant reply composed just before it).
	times := make([]time.Duration, cfg.Ops)
	for i := range times {
		times[i] = randDur(rng, 0, cfg.Horizon*8/10)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, at := range times {
		if len(sc.Ops) >= cfg.Ops {
			break
		}
		client := rng.Intn(cfg.Clients)
		if cfg.Clients > 1 && rng.Float64() < 0.2 {
			file := rng.Intn(cfg.Files)
			other := (client + 1 + rng.Intn(cfg.Clients-1)) % cfg.Clients
			sc.Ops = append(sc.Ops, Op{At: at, Client: client, File: file, Kind: OpRead})
			if len(sc.Ops) < cfg.Ops {
				sc.Ops = append(sc.Ops, Op{At: at, Client: other, File: file, Kind: OpWrite})
			}
			continue
		}
		burst := 1
		if rng.Float64() < 0.2 {
			burst = 2 + rng.Intn(3)
		}
		for i := 0; i < burst && len(sc.Ops) < cfg.Ops; i++ {
			op := Op{At: at, Client: client}
			switch r := rng.Float64(); {
			case r < 0.55:
				op.Kind = OpRead
				op.File = rng.Intn(cfg.Files)
			case r < 0.85:
				op.Kind = OpWrite
				op.File = rng.Intn(cfg.Files)
			case cfg.Groups > 1 && r < 0.93:
				// Cross-shard rename: moves the file's home and leaves
				// every other client's routing belief for it stale.
				op.Kind = OpRename
				op.File = rng.Intn(cfg.Files)
			default:
				op.Kind = OpExtend
			}
			sc.Ops = append(sc.Ops, op)
		}
	}

	p := cfg.Profile
	drift := p == ProfileDrift || p == ProfileAll
	partition := p == ProfilePartition || p == ProfileAll
	crash := p == ProfileCrash || p == ProfileAll

	if drift {
		// Keep each clock's worst-case error within ε/4 so mutual
		// error (client vs server, each contributing rate and skew
		// terms) stays under ε: rate deviation bounded by
		// ε/8 / (horizon + term), skew bounded by ε/8.
		span := cfg.Horizon + cfg.Term
		dev := float64(cfg.Allowance) / 8 / float64(span)
		skewMax := cfg.Allowance / 8
		for i := 0; i < cfg.Clients; i++ {
			sc.ClientRate[i] = 1 + (rng.Float64()*2-1)*dev
			sc.ClientSkew[i] = time.Duration((rng.Float64()*2 - 1) * float64(skewMax))
		}
		sc.ServerRate = 1 + (rng.Float64()*2-1)*dev
		sc.ServerSkew = time.Duration((rng.Float64()*2 - 1) * float64(skewMax))
		// Replicas drift independently of one another, each at the same
		// ε budget: elections must stay safe at the allowance boundary.
		for i := range sc.ServerRates {
			sc.ServerRates[i] = 1 + (rng.Float64()*2-1)*dev
			sc.ServerSkews[i] = time.Duration((rng.Float64()*2 - 1) * float64(skewMax))
		}
	}
	if partition {
		sc.Jitter = randDur(rng, 0, sc.Prop)
		cuts := 1 + rng.Intn(2)
		for i := 0; i < cuts; i++ {
			sc.Faults = append(sc.Faults, Fault{
				Kind:   FaultPartition,
				Client: rng.Intn(cfg.Clients),
				Server: rng.Intn(cfg.Servers * cfg.Groups),
				At:     randDur(rng, 0, cfg.Horizon*7/10),
				Dur:    randDur(rng, cfg.Term/2, cfg.Term*3/2),
			})
		}
		if cfg.Servers > 1 && rng.Float64() < 0.5 {
			ft := Fault{
				Kind: FaultAsymPartition,
				At:   randDur(rng, cfg.Term, cfg.Horizon*7/10),
				Dur:  randDur(rng, cfg.Term/2, cfg.Term*3/2),
			}
			if cfg.Groups > 1 {
				ft.Group = rng.Intn(cfg.Groups)
			}
			sc.Faults = append(sc.Faults, ft)
		}
		if rng.Float64() < 0.7 {
			sc.Faults = append(sc.Faults, Fault{
				Kind: FaultLoss,
				At:   randDur(rng, 0, cfg.Horizon*7/10),
				Dur:  randDur(rng, cfg.Term/2, cfg.Term*2),
				Rate: 0.05 + 0.35*rng.Float64(),
			})
		}
		if rng.Float64() < 0.7 {
			rt := 2*sc.Prop + 4*sc.Proc
			kinds := delayableKinds
			if cfg.Installed {
				// Delayed broadcasts and snapshot replies probe the
				// send-stamp anchoring: a frame held in the fabric must
				// not extend client belief past the recorded horizon.
				kinds = append(append([]string(nil), delayableKinds...), kindBroadcast, kindClassSnap)
			}
			sc.Faults = append(sc.Faults, Fault{
				Kind:     FaultDelay,
				Client:   rng.Intn(cfg.Clients),
				MsgKind:  kinds[rng.Intn(len(kinds))],
				ToServer: rng.Intn(2) == 0,
				At:       randDur(rng, 0, cfg.Horizon*7/10),
				Dur:      randDur(rng, rt, cfg.Term),
				Extra:    randDur(rng, rt, 20*rt),
			})
		}
	}
	if crash {
		if rng.Float64() < 0.8 {
			sc.Faults = append(sc.Faults, Fault{
				Kind:   FaultClientCrash,
				Client: rng.Intn(cfg.Clients),
				At:     randDur(rng, 0, cfg.Horizon*7/10),
				Dur:    randDur(rng, cfg.Term/2, cfg.Term*2),
			})
		}
		if rng.Float64() < 0.6 {
			sc.Faults = append(sc.Faults, Fault{
				Kind:   FaultServerCrash,
				Server: rng.Intn(cfg.Servers * cfg.Groups),
				At:     randDur(rng, 0, cfg.Horizon*7/10),
				Dur:    randDur(rng, cfg.Term/4, cfg.Term),
			})
		}
		if cfg.Servers > 1 && rng.Float64() < 0.6 {
			ft := Fault{
				Kind: FaultMasterCrash,
				At:   randDur(rng, cfg.Term, cfg.Horizon*7/10),
				Dur:  randDur(rng, cfg.Term/2, cfg.Term*2),
			}
			if cfg.Groups > 1 {
				// Kill one group's master mid-run — often mid-rename,
				// the window the move between groups must survive.
				ft.Group = rng.Intn(cfg.Groups)
			}
			sc.Faults = append(sc.Faults, ft)
		}
	}
	sort.SliceStable(sc.Faults, func(i, j int) bool { return sc.Faults[i].At < sc.Faults[j].At })
	if cfg.Installed {
		// Drawn last, so the rest of the scenario is what the seed drew
		// before this draw existed.
		sc.QuietAfterWrite = randDur(rng, sc.InstalledTerm/8, sc.InstalledTerm)
	}
	return sc
}

// Bounded-exhaustive limits. The alphabet grows as clients·(2·files+1),
// and the walk enumerates alphabet^ops sequences, so the bounds keep
// the space around 10^5 schedules.
const (
	MaxExhaustiveClients = 3
	MaxExhaustiveFiles   = 2
	MaxExhaustiveOps     = 6
)

type symbol struct {
	client int
	file   int
	kind   OpKind
}

func exhaustiveAlphabet(clients, files int) []symbol {
	var out []symbol
	for c := 0; c < clients; c++ {
		for f := 0; f < files; f++ {
			out = append(out, symbol{c, f, OpRead}, symbol{c, f, OpWrite})
		}
		out = append(out, symbol{c, 0, OpExtend})
	}
	return out
}

// ExhaustiveCount reports how many schedules ExhaustiveWalk would
// enumerate under cfg.
func ExhaustiveCount(cfg GenConfig) int {
	cfg = cfg.withDefaults()
	n := len(exhaustiveAlphabet(min(cfg.Clients, MaxExhaustiveClients), min(cfg.Files, MaxExhaustiveFiles)))
	ops := min(cfg.Ops, MaxExhaustiveOps)
	total := 1
	for i := 0; i < ops; i++ {
		total *= n
	}
	return total
}

// ExhaustiveWalk enumerates every operation sequence of length
// min(cfg.Ops, MaxExhaustiveOps) over the bounded alphabet, invoking fn
// for each fault-free scenario. Enumeration stops early when fn returns
// false or budget scenarios (if positive) have been visited. It reports
// how many scenarios were visited.
func ExhaustiveWalk(cfg GenConfig, budget int, fn func(Scenario) bool) int {
	cfg = cfg.withDefaults()
	clients := min(cfg.Clients, MaxExhaustiveClients)
	files := min(cfg.Files, MaxExhaustiveFiles)
	ops := min(cfg.Ops, MaxExhaustiveOps)
	alphabet := exhaustiveAlphabet(clients, files)
	// Ops are spaced half a round-trip apart (default fabric timing:
	// RT = 2·2ms + 4·100µs), so each op's messages are still in flight
	// when the next op starts and the enumeration covers concurrent
	// orderings, not just serialized ones.
	const spacing = 2200 * time.Microsecond
	idx := make([]int, ops)
	visited := 0
	for {
		sc := Scenario{Clients: clients, Files: files, Term: cfg.Term, Allowance: cfg.Allowance}
		for i, k := range idx {
			s := alphabet[k]
			sc.Ops = append(sc.Ops, Op{At: time.Duration(i) * spacing, Client: s.client, File: s.file, Kind: s.kind})
		}
		visited++
		if !fn(sc) {
			return visited
		}
		if budget > 0 && visited >= budget {
			return visited
		}
		// Odometer increment.
		i := ops - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(alphabet) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return visited
		}
	}
}
