package replica

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
)

// NodeConfig parameterizes the TCP runtime around a Machine.
type NodeConfig struct {
	// ID is this replica's index; Peers[ID] is its own peer-mesh
	// listen address.
	ID int
	// Peers lists the replica set's peer-mesh addresses in replica-ID
	// order. Replica IDs — and the NOT_MASTER index hints clients
	// receive — are positions in this list, so every replica and every
	// client must be configured with the same ordering.
	Peers []string
	// Term is the master-lease duration; Allowance the clock margin ε.
	Term      time.Duration
	Allowance time.Duration
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Seed drives election jitter.
	Seed int64
	// RPCTimeout bounds replication round-trips (default 2s).
	RPCTimeout time.Duration
	// DialTimeout bounds peer dials (default 2s).
	DialTimeout time.Duration
	Obs         *obs.Observer
	// Tracer, when enabled, records per-peer replication ship spans
	// under a sampled write's trace context and gives each election its
	// own trace (prepare → elected → the server's promote/recovery
	// spans). Nil is the disabled state and costs one branch.
	Tracer *tracing.Tracer

	// OnRole is invoked (from a dedicated goroutine) on role
	// transitions with the new role and the master index this replica
	// believes in (-1 unknown). Transitions are never dropped: while a
	// callback runs, later transitions coalesce to the latest state,
	// which is delivered next — so an elected or demoted edge always
	// reaches the callback, possibly merged with newer ones.
	OnRole func(role Role, master int)
	// OnReplApply applies one replicated write pushed by the master,
	// reporting whether it was actually applied (false: dropped as
	// stale, i.e. this replica already holds that sequence or newer).
	// Only real applies count toward the master's replication quorum.
	OnReplApply func(f FileState) (applied bool, err error)
	// OnSyncState dumps this replica's replicated file state and its
	// max-term floor for a new master's catch-up sync.
	OnSyncState func() ([]FileState, time.Duration)
	// OnMaxTerm persists a max-term raise replicated by the master.
	OnMaxTerm func(d time.Duration) error
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

var errRPCTimeout = errors.New("replica: rpc timed out")

// roleChange is one ordered role-transition notification.
type roleChange struct {
	role    Role
	master  int
	elected bool // this replica just became master
	demoted bool // this replica just ceased being master
}

// Node runs a Machine over real TCP: a peer-mesh listener, lazily
// dialed outgoing connections, clock-driven ticks, and the replication
// RPCs the master uses to commit writes on a quorum.
type Node struct {
	cfg NodeConfig
	clk clock.Clock
	ln  net.Listener

	mu         sync.Mutex // guards m and the role snapshot
	m          *Machine
	lastRole   Role
	lastMaster int

	peers    []*peer
	kick     chan struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Role-change mailbox: a 1-slot latest-value cell instead of a
	// queue, so transitions are coalesced — never dropped — when the
	// consumer (notifyLoop running OnRole) is slow. A dropped
	// 'elected' would skip the promotion catch-up sync for a whole
	// mastership; a dropped 'demoted' would leave client sessions
	// attached to a deposed master.
	notifyMu  sync.Mutex
	pending   *roleChange
	notifySig chan struct{}

	// shipOps are precomputed per-peer latency histogram names
	// ("repl-ship-peer2"), so the replication hot path never formats a
	// string.
	shipOps []string

	// Election trace state: one root span per election attempt, with an
	// elect.prepare child covering the candidate round. The root stays
	// open across the promotion catch-up (the server's failover.promote
	// and recovery.window spans attach under it via ElectionContext) and
	// is closed by EndElection or a demotion.
	electMu   sync.Mutex
	electRoot tracing.Span
	electPrep tracing.Span
}

// NewNode creates (but does not start) a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID < 0 || cfg.ID >= len(cfg.Peers) {
		return nil, fmt.Errorf("replica: id %d out of range for %d peers", cfg.ID, len(cfg.Peers))
	}
	n := &Node{
		cfg:        cfg,
		clk:        cfg.Clock,
		kick:       make(chan struct{}, 1),
		notifySig:  make(chan struct{}, 1),
		stopped:    make(chan struct{}),
		lastRole:   RoleFollower,
		lastMaster: -1,
	}
	n.m = NewMachine(Config{
		ID: cfg.ID, N: len(cfg.Peers), Term: cfg.Term,
		Allowance: cfg.Allowance, Seed: cfg.Seed,
	}, n.clk.Now())
	for i, addr := range cfg.Peers {
		n.shipOps = append(n.shipOps, fmt.Sprintf("repl-ship-peer%d", i))
		if i == cfg.ID {
			n.peers = append(n.peers, nil)
			continue
		}
		n.peers = append(n.peers, newPeer(n, i, addr))
	}
	return n, nil
}

// Start binds the peer-mesh listener and launches the node's loops.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.cfg.Peers[n.cfg.ID])
	if err != nil {
		return err
	}
	n.ln = ln
	n.wg.Add(3)
	go n.acceptLoop()
	go n.timerLoop()
	go n.notifyLoop()
	return nil
}

// Addr reports the peer-mesh listen address (useful with ":0").
func (n *Node) Addr() string {
	if n.ln == nil {
		return n.cfg.Peers[n.cfg.ID]
	}
	return n.ln.Addr().String()
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopped)
		if n.ln != nil {
			n.ln.Close()
		}
		for _, p := range n.peers {
			if p != nil {
				p.close()
			}
		}
		n.EndElection("shutdown")
	})
	n.wg.Wait()
}

// IsMaster reports whether this replica currently holds the master
// lease on its own conservative clock.
func (n *Node) IsMaster() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.IsMaster(n.clk.Now())
}

// Role reports the replica's current election role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.Role(n.clk.Now())
}

// MasterIndex reports which replica this node believes is master (-1
// unknown).
func (n *Node) MasterIndex() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id, ok := n.m.Master(n.clk.Now()); ok {
		return id
	}
	return -1
}

// MasterExpiry reports when this replica's own master lease expires
// (zero when it is not master).
func (n *Node) MasterExpiry() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.MasterUntil()
}

// MasterBallot reports the election ballot the current master lease
// was won with (zero when this replica is not master) — the fencing
// token stamped into replication frames.
func (n *Node) MasterBallot() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.MasterBallot(n.clk.Now())
}

// ID reports the replica's index.
func (n *Node) ID() int { return n.cfg.ID }

// quorum is the majority size over the full replica set.
func (n *Node) quorum() int { return len(n.cfg.Peers)/2 + 1 }

// deliver feeds one incoming election message to the machine.
func (n *Node) deliver(msg Msg) {
	if msg.From >= 0 && msg.From < len(n.peers) && n.peers[msg.From] != nil {
		// The peer is up: replies need not wait out an old dial backoff.
		n.peers[msg.From].nextDialAt.Store(0)
	}
	n.mu.Lock()
	out := n.m.HandleMessage(n.clk.Now(), msg)
	n.roleCheckLocked()
	n.mu.Unlock()
	n.send(out)
	// The machine's wake point may have moved; let the timer recompute.
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// roleCheckLocked detects role transitions; callers hold n.mu.
func (n *Node) roleCheckLocked() {
	now := n.clk.Now()
	role := n.m.Role(now)
	master := -1
	if id, ok := n.m.Master(now); ok {
		master = id
	}
	if role == n.lastRole && master == n.lastMaster {
		return
	}
	rc := roleChange{
		role: role, master: master,
		elected: role == RoleMaster && n.lastRole != RoleMaster,
		demoted: n.lastRole == RoleMaster && role != RoleMaster,
	}
	n.lastRole, n.lastMaster = role, master
	n.electionSpans(role, rc)
	// Coalesce into the latest-value mailbox: the consumer always sees
	// the newest role, with elected/demoted edges OR-ed so neither
	// safety-relevant transition is ever lost. Never blocks the
	// protocol on a slow consumer.
	n.notifyMu.Lock()
	if n.pending == nil {
		n.pending = &rc
	} else {
		n.pending.role, n.pending.master = rc.role, rc.master
		n.pending.elected = n.pending.elected || rc.elected
		n.pending.demoted = n.pending.demoted || rc.demoted
	}
	n.notifyMu.Unlock()
	select {
	case n.notifySig <- struct{}{}:
	default: // a signal is already pending; the consumer will see ours
	}
}

// electionSpans turns role transitions into an election trace: entering
// the candidate role roots a new "election" trace with an
// "elect.prepare" child covering the PaxosLease round; winning ends the
// prepare span ("elected") but leaves the root open for the promotion
// sequence (catch-up sync, Promote, recovery window — recorded by the
// server under ElectionContext); losing the round or being demoted
// closes everything. Sampling is the tracer's: an unsampled election
// records nothing and the handles stay zero.
func (n *Node) electionSpans(role Role, rc roleChange) {
	if !n.cfg.Tracer.Enabled() {
		return
	}
	n.electMu.Lock()
	defer n.electMu.Unlock()
	switch {
	case rc.elected:
		if !n.electRoot.Recording() {
			// Defensive: an election observed without a candidate
			// transition (coalesced edges) still gets a trace.
			n.electRoot = n.cfg.Tracer.StartRoot("election")
		}
		if n.electPrep.Recording() {
			n.electPrep.EndNote("elected")
			n.electPrep = tracing.Span{}
		}
	case rc.demoted:
		n.endElectionLocked("demoted")
	case role == RoleCandidate:
		if !n.electRoot.Recording() {
			n.electRoot = n.cfg.Tracer.StartRoot("election")
			n.electPrep = n.cfg.Tracer.StartChild(n.electRoot.Context(), "elect.prepare")
		}
	case role == RoleFollower:
		// A candidate round that lapsed without a win.
		n.endElectionLocked("lost")
	}
}

func (n *Node) endElectionLocked(note string) {
	if n.electPrep.Recording() {
		n.electPrep.EndNote(note)
		n.electPrep = tracing.Span{}
	}
	if n.electRoot.Recording() {
		n.electRoot.EndNote(note)
		n.electRoot = tracing.Span{}
	}
}

// ElectionContext exposes the open election trace's context (zero when
// none is open or the election was unsampled), so the promotion
// sequence in cmd/leasesrv can attach its sync and promote spans to the
// failover that caused them.
func (n *Node) ElectionContext() tracing.Context {
	n.electMu.Lock()
	defer n.electMu.Unlock()
	return n.electRoot.Context()
}

// EndElection closes the open election trace with an outcome note —
// called once the promotion sequence completes (or fails) so the trace
// covers election through serving.
func (n *Node) EndElection(note string) {
	n.electMu.Lock()
	defer n.electMu.Unlock()
	n.endElectionLocked(note)
}

// send dispatches outgoing election messages to their peers.
func (n *Node) send(msgs []Msg) {
	for _, m := range msgs {
		if m.To == n.cfg.ID || m.To < 0 || m.To >= len(n.peers) {
			continue
		}
		n.peers[m.To].enqueue(nil, msgFrameType(m.Kind), encodeMsg(m))
	}
}

// timerLoop drives Machine.Tick at its requested wake points.
func (n *Node) timerLoop() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		now := n.clk.Now()
		var out []Msg
		if !now.Before(n.m.NextWake()) {
			out = n.m.Tick(now)
			n.roleCheckLocked()
		}
		wait := n.m.NextWake().Sub(n.clk.Now())
		n.mu.Unlock()
		n.send(out)
		for _, p := range n.peers {
			if p != nil {
				p.failCalls(now.Add(-n.cfg.RPCTimeout), errRPCTimeout)
			}
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		ch, cancel := n.clk.After(wait)
		select {
		case <-ch:
		case <-n.kick:
			cancel()
		case <-n.stopped:
			cancel()
			return
		}
	}
}

// notifyLoop delivers role transitions: obs events first, then the
// OnRole callback. Each iteration takes the coalesced latest state from
// the mailbox, so a long-running callback (a promotion catch-up sync)
// delays delivery but never loses a transition.
func (n *Node) notifyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.notifySig:
		case <-n.stopped:
			return
		}
		n.notifyMu.Lock()
		rc := n.pending
		n.pending = nil
		n.notifyMu.Unlock()
		if rc == nil {
			continue
		}
		if o := n.cfg.Obs; o.Enabled() {
			// When both edges coalesced, order them toward the final
			// role: a replica ending up master was demoted first.
			if rc.elected && rc.demoted && rc.role == RoleMaster {
				o.Record(obs.Event{Type: obs.EvDemoted, Replica: n.cfg.ID})
				o.Record(obs.Event{Type: obs.EvElected, Replica: n.cfg.ID})
			} else {
				if rc.elected {
					o.Record(obs.Event{Type: obs.EvElected, Replica: n.cfg.ID})
				}
				if rc.demoted {
					o.Record(obs.Event{Type: obs.EvDemoted, Replica: n.cfg.ID})
				}
			}
		}
		if n.cfg.OnRole != nil {
			n.cfg.OnRole(rc.role, rc.master)
		}
	}
}

// closeOnStop closes c when the node stops, to unblock a read on it, or
// when the returned func is called — on the connection's own end — so a
// re-dialed link leaves no goroutine behind.
func (n *Node) closeOnStop(c net.Conn) (done func()) {
	ended := make(chan struct{})
	n.wg.Add(1) // under the caller's own count, so never racing Stop's Wait
	go func() {
		defer n.wg.Done()
		select {
		case <-n.stopped:
		case <-ended:
		}
		c.Close()
	}()
	return func() {
		close(ended)
		c.Close()
	}
}

// acceptLoop serves inbound peer-mesh connections.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stopped:
				return
			default:
				continue
			}
		}
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// inbound is one inbound peer connection: the sender identity bound to
// it and the replies encoded since the last flush.
type inbound struct {
	n *Node
	// from is the first RPC frame's self-declared sender (-1 before
	// one); frames claiming a different identity later kill the
	// connection. The mesh carries no cryptographic authentication
	// (DESIGN.md §9 assumes a trusted network), but binding stops one
	// peer — or one stray process — from speaking as several replicas on
	// a single connection.
	from int
	out  []byte
}

// maxBatch is where the send goroutine stops adding frames to a batch,
// and the largest write buffer a mesh connection keeps between batches,
// so one catch-up sync does not pin a store's worth of memory on an
// idle link.
const maxBatch = 256 << 10

// serveConn handles one inbound peer connection: election messages are
// fed to the machine, replication RPCs answered in place. Replies are
// encoded into one buffer while further requests are already read and
// written when the input runs dry, so a train of k requests is answered
// by one write and a lone request at once.
func (n *Node) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer n.closeOnStop(c)()
	fr := proto.GetReader(c)
	defer proto.PutReader(fr)
	in := inbound{n: n, from: -1}
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		if k := frameMsgKind(f.Type); k != 0 {
			msg, derr := decodeMsg(k, f.Payload)
			f.Recycle()
			if derr == nil {
				n.deliver(msg)
			}
		} else {
			err = in.handleRPC(f)
		}
		if len(in.out) > 0 && (err != nil || !fr.Whole()) {
			if _, werr := c.Write(in.out); werr != nil {
				return
			}
			if in.out = in.out[:0]; cap(in.out) > maxBatch {
				in.out = nil
			}
		}
		if err != nil {
			return
		}
	}
}

// reply encodes one reply frame straight into the connection's pending
// output; fill appends the payload in place (nil: none).
func (in *inbound) reply(reqID uint64, t proto.MsgType, fill func(*proto.Enc)) {
	start := len(in.out)
	e := proto.EncOn(proto.BeginFrame(in.out, t, reqID))
	if fill != nil {
		fill(&e)
	}
	in.out = e.Bytes()
	if err := proto.FinishFrame(in.out, start); err != nil {
		in.out = in.out[:start]
		in.fail(reqID, err)
	}
}

func (in *inbound) fail(reqID uint64, err error) {
	in.reply(reqID, proto.TError, func(e *proto.Enc) { e.Str(err.Error()) })
}

// bind validates a frame's claimed sender and pins it to the
// connection. A violation is not a protocol reply but a connection
// error: the peer (or impostor) is not speaking the mesh contract.
func (in *inbound) bind(from int) error {
	if from < 0 || from >= len(in.n.cfg.Peers) || from == in.n.cfg.ID {
		return fmt.Errorf("replica: frame claims invalid replica id %d", from)
	}
	if in.from >= 0 && in.from != from {
		return fmt.Errorf("replica: connection bound to replica %d, frame claims %d", in.from, from)
	}
	in.from = from
	return nil
}

// handleRPC answers one replication RPC on the inbound connection. A
// non-nil return closes the connection, after the reply that explains
// it.
func (in *inbound) handleRPC(f proto.Frame) error {
	defer f.Recycle()
	n, id := in.n, f.ReqID
	d := proto.NewDec(f.Payload)
	from := int(d.I64())
	ballot := d.U64()
	var fs FileState
	var term time.Duration
	switch f.Type {
	case proto.TReplApply:
		fs = FileState{Seq: d.U64(), Path: d.Str(), Data: d.Blob()}
	case proto.TReplSync:
	case proto.TReplMaxTerm:
		term = d.Dur()
	default:
		in.fail(id, fmt.Errorf("replica: unexpected frame type %v", f.Type))
		return nil
	}
	if d.Err != nil {
		in.fail(id, d.Err)
		return nil
	}
	if err := in.bind(from); err != nil {
		in.fail(id, err)
		return err
	}
	// A sync is read-only and also serves a diskless rejoin (ballot
	// zero), so it alone is not master-fenced.
	if f.Type != proto.TReplSync && !n.masterFrameOK(from, ballot) {
		in.fail(id, fmt.Errorf("replica: %v from %d ballot %d, not the live master lease", f.Type, from, ballot))
		return nil
	}
	switch f.Type {
	case proto.TReplApply:
		if n.cfg.OnReplApply == nil {
			in.fail(id, errors.New("replica: no apply hook"))
			return nil
		}
		applied, err := n.cfg.OnReplApply(fs)
		if err != nil {
			in.fail(id, err)
			return nil
		}
		// The reply distinguishes a real apply from a stale-sequence
		// drop, so the master counts only replicas that actually hold
		// the write toward its quorum.
		in.reply(id, proto.TOK, func(e *proto.Enc) {
			if applied {
				e.U8(1)
			} else {
				e.U8(0)
			}
		})
	case proto.TReplSync:
		var files []FileState
		var maxTerm time.Duration
		if n.cfg.OnSyncState != nil {
			files, maxTerm = n.cfg.OnSyncState()
		}
		in.reply(id, proto.TReplSyncRep, func(e *proto.Enc) { encodeSyncRep(e, files, maxTerm) })
	case proto.TReplMaxTerm:
		if n.cfg.OnMaxTerm != nil {
			if err := n.cfg.OnMaxTerm(term); err != nil {
				in.fail(id, err)
				return nil
			}
		}
		in.reply(id, proto.TOK, nil)
	}
	return nil
}

// masterFrameOK fences replication RPCs by the acceptor's own election
// state: the sender must be the replica this node believes holds a live
// master lease AND the frame's ballot must be no older than anything
// this node has promised or accepted. Belief alone (the pre-fix check)
// let a deposed master's late-flushed frames — or any process writing
// the right 'from' byte — mutate per-path sequence state; the ballot
// ties a frame to one specific lease incarnation.
func (n *Node) masterFrameOK(from int, ballot uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.AcceptsMasterFrame(n.clk.Now(), from, ballot)
}

// result is one peer's answer to a broadcast RPC, or the reason there
// will be none.
type result struct {
	f   proto.Frame
	err error
}

// call is one RPC pending at one peer. done is shared by the calls of
// one broadcast and buffered for all of them, so completing a call
// never blocks; span and op (when set) record the round-trip.
type call struct {
	done  chan<- result
	span  tracing.Span
	op    string
	start time.Time
}

// broadcastRPC queues one RPC on every peer's send queue and returns
// the number of COUNTED acknowledgements, waiting only until enough
// have counted, all have answered, or the node's RPC timeout — one
// deadline for the whole broadcast — has passed. each consumes (and
// must recycle) every successful non-error reply and reports whether it
// counts toward the quorum; nil counts every TOK-class reply.
//
// tc and span attach one child span per peer round-trip to a sampled
// request's trace (the zero context records nothing); ops, when
// non-nil, is the per-peer latency histogram name table (indexed by
// peer id) each round-trip is observed under.
func (n *Node) broadcastRPC(tc tracing.Context, span string, ops []string, t proto.MsgType, payload []byte, need int, each func(proto.Frame) bool) int {
	// Replies the caller does not wait for (it returns on a quorum) land
	// in the buffer and are left to the collector.
	done := make(chan result, len(n.peers))
	sent, now := 0, n.clk.Now()
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		cl := call{done: done, span: n.cfg.Tracer.StartChild(tc, span), start: now}
		if ops != nil {
			cl.op = ops[p.id]
		}
		p.enqueue(&cl, t, payload)
		sent++
	}
	if sent == 0 {
		return 0
	}
	timeout, cancel := n.clk.After(n.cfg.RPCTimeout)
	defer cancel()
	acks := 0
	for i := 0; i < sent && acks < need; i++ {
		select {
		case r := <-done:
			switch {
			case r.err != nil:
			case r.f.Type == proto.TError:
				r.f.Recycle()
			case each == nil:
				r.f.Recycle()
				acks++
			case each(r.f):
				acks++
			}
		case <-timeout:
			return acks
		case <-n.stopped:
			return acks
		}
	}
	return acks
}

// appliedReply reports whether a TReplApply TOK reply marks a real
// apply (as opposed to a stale-sequence drop), recycling the frame.
func appliedReply(f proto.Frame) bool {
	d := proto.NewDec(f.Payload)
	applied := d.U8() == 1 && d.Err == nil
	f.Recycle()
	return applied
}

// ReplicateWrite pushes one committed write to the peer set and
// returns nil once a quorum (counting this replica) has actually
// applied it — stale-sequence drops and fencing rejections do not
// count, so a successful return really means the bytes are durable on
// a quorum. The master calls this BEFORE applying locally and acking
// the client, so no reader ever observes a value a failover could
// lose. Frames are stamped with the master lease's election ballot;
// one retry re-stamps the current ballot to cover a frame racing a
// lease renewal at a peer.
//
// tc is the causing write's trace context: a sampled write records one
// "repl.ship" child span per peer round-trip, so /traces shows which
// peer the quorum waited on. The zero context records nothing.
func (n *Node) ReplicateWrite(tc tracing.Context, fs FileState) error {
	need := n.quorum() - 1 // counting ourselves
	if need <= 0 {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		ballot := n.MasterBallot()
		if ballot == 0 {
			return errors.New("replica: not master")
		}
		var e proto.Enc
		e.I64(int64(n.cfg.ID)).U64(ballot).U64(fs.Seq).Str(fs.Path).Blob(fs.Data)
		acks := n.broadcastRPC(tc, "repl.ship", n.shipOps, proto.TReplApply, e.Bytes(), need, appliedReply)
		if acks >= need {
			return nil
		}
		lastErr = fmt.Errorf("replica: write %s#%d applied at %d/%d peers", fs.Path, fs.Seq, acks, need)
	}
	return lastErr
}

// ReplicateMaxTerm pushes a durable max-term raise — a promoted master's
// term ceiling, before it serves — to a quorum, preserving the §2
// ordering across failover: any future master's recovery window covers
// every lease any past master granted. Ballot-stamped and retried once,
// like ReplicateWrite.
func (n *Node) ReplicateMaxTerm(d time.Duration) error {
	need := n.quorum() - 1
	if need <= 0 {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		ballot := n.MasterBallot()
		if ballot == 0 {
			return errors.New("replica: not master")
		}
		var e proto.Enc
		e.I64(int64(n.cfg.ID)).U64(ballot).Dur(d)
		acks := n.broadcastRPC(tracing.Context{}, "", nil, proto.TReplMaxTerm, e.Bytes(), need, nil)
		if acks >= need {
			return nil
		}
		lastErr = fmt.Errorf("replica: max-term %v replicated to %d/%d peers", d, acks, need)
	}
	return lastErr
}

// SyncFromPeers collects the replicated file state and max-term floor
// from a quorum of the full set (counting this replica): the floor
// merged by maximum, the files NOT merged — every reply's list, one
// after the other, with a path some reply lacks listed for it at
// sequence zero — because the caller's promotion needs to know not only
// the newest state of each file (any write or term raise that was ever
// quorum-acked is present in at least one member of any quorum, and
// applying the lists through a seq-guarded apply keeps the newest) but
// also whether the repliers hold it unanimously.
//
// tc is the election trace's context during a promotion catch-up (one
// "repl.sync" child span per peer round-trip); the zero context — a
// follower's diskless rejoin — records nothing.
func (n *Node) SyncFromPeers(tc tracing.Context) ([]FileState, time.Duration, error) {
	need := n.quorum() - 1
	if need <= 0 {
		return nil, 0, nil
	}
	var replies [][]FileState
	var maxTerm time.Duration
	var mu sync.Mutex
	// The request carries (from, ballot) like every replication frame;
	// peers bind from to the connection but do not master-fence syncs,
	// which also serve a restarted follower's diskless rejoin (ballot
	// zero).
	var e proto.Enc
	e.I64(int64(n.cfg.ID)).U64(n.MasterBallot())
	acks := n.broadcastRPC(tc, "repl.sync", nil, proto.TReplSync, e.Bytes(), need, func(f proto.Frame) bool {
		if f.Type != proto.TReplSyncRep {
			f.Recycle()
			return false
		}
		files, floor, err := decodeSyncRep(f.Payload)
		f.Recycle()
		if err != nil {
			return false
		}
		mu.Lock()
		replies = append(replies, files)
		maxTerm = max(maxTerm, floor)
		mu.Unlock()
		return true
	})
	if acks < need {
		return nil, 0, fmt.Errorf("replica: sync reached %d/%d peers", acks, need)
	}
	mu.Lock()
	defer mu.Unlock()
	paths := map[string]int{}
	for _, files := range replies {
		for _, fs := range files {
			paths[fs.Path]++
		}
	}
	var out []FileState
	for _, files := range replies {
		out = append(out, files...)
		if len(replies) == 1 {
			break
		}
		held := make(map[string]bool, len(files))
		for _, fs := range files {
			held[fs.Path] = true
		}
		for p := range paths {
			if !held[p] {
				out = append(out, FileState{Path: p})
			}
		}
	}
	return out, maxTerm, nil
}

// SyncForPromotion runs the catch-up sync for a freshly elected
// master, retrying while the election lease still stands: a transient
// quorum shortfall (a peer mid-restart, a partition healing) must not
// let a master serve without the merged state — the §2 recovery window
// and the per-path sequence floor both come from this merge. It
// returns an error only when the node stops or the mastership lapses,
// in which case the caller must NOT promote: serving stays gated and
// the next election retries the whole sequence.
func (n *Node) SyncForPromotion(tc tracing.Context) ([]FileState, time.Duration, error) {
	for {
		files, floor, err := n.SyncFromPeers(tc)
		if err == nil {
			return files, floor, nil
		}
		if !n.IsMaster() {
			return nil, 0, fmt.Errorf("replica: mastership lapsed during catch-up sync: %w", err)
		}
		wait, cancel := n.clk.After(100 * time.Millisecond)
		select {
		case <-wait:
		case <-n.stopped:
			cancel()
			return nil, 0, errors.New("replica: node stopped during catch-up sync")
		}
	}
}

// peer is one outgoing peer-mesh connection. Election messages and
// replication RPCs share one send queue and one send goroutine, which
// writes everything queued at once: frames issued back to back cost one
// write between them, and a lone frame is written as soon as the
// goroutine runs — nothing is ever held for a timer. Responses are
// matched to their calls by request ID.
type peer struct {
	n    *Node
	id   int
	addr string

	mu         sync.Mutex // guards conn and writes on it
	conn       net.Conn
	nextDialAt atomic.Int64 // unix nanoseconds; deliver clears it

	// callsMu guards the call table and the send queue. An RPC always
	// queues (its waiting caller bounds their number): a burst is delayed,
	// never refused. Election messages are dropped past maxQueuedMsgs of
	// them; the protocol retries by timer.
	callsMu    sync.Mutex
	calls      map[uint64]call
	nextID     uint64
	queue      []outFrame
	queuedMsgs int

	wake chan struct{} // tells the send goroutine the queue is not empty
}

const maxQueuedMsgs = 128

type outFrame struct {
	t       proto.MsgType
	reqID   uint64 // 0: an election message
	payload []byte
}

func newPeer(n *Node, id int, addr string) *peer {
	p := &peer{n: n, id: id, addr: addr, calls: make(map[uint64]call), wake: make(chan struct{}, 1)}
	n.wg.Add(1)
	go p.sendLoop()
	return p
}

// enqueue queues an election message (nil cl) or registers cl and
// queues its request.
func (p *peer) enqueue(cl *call, t proto.MsgType, payload []byte) {
	f := outFrame{t: t, payload: payload}
	p.callsMu.Lock()
	switch {
	case cl != nil:
		p.nextID++
		f.reqID = p.nextID
		p.calls[f.reqID] = *cl
	case p.queuedMsgs >= maxQueuedMsgs:
		p.callsMu.Unlock()
		return
	default:
		p.queuedMsgs++
	}
	p.queue = append(p.queue, f)
	p.callsMu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// complete delivers the outcome of call id, once: whichever of the
// response, a connection failure and expiry comes first takes the call
// off the table.
func (p *peer) complete(id uint64, f proto.Frame, err error) {
	p.callsMu.Lock()
	cl, ok := p.calls[id]
	delete(p.calls, id)
	p.callsMu.Unlock()
	if !ok {
		f.Recycle()
		return
	}
	p.finish(cl, f, err)
}

func (p *peer) finish(cl call, f proto.Frame, err error) {
	if o := p.n.cfg.Obs; cl.op != "" && o.Enabled() {
		o.ObserveOp(cl.op, p.n.clk.Now().Sub(cl.start))
	}
	if cl.span.Recording() {
		switch {
		case err != nil:
			cl.span.EndNote(fmt.Sprintf("peer=%d err", p.id))
		case f.Type == proto.TError:
			cl.span.EndNote(fmt.Sprintf("peer=%d refused", p.id))
		default:
			cl.span.EndNote(fmt.Sprintf("peer=%d ok", p.id))
		}
	}
	cl.done <- result{f, err}
}

// failCalls aborts the pending RPCs issued no later than cutoff: every
// one (cutoff now) when the connection fails, and when the timer loop
// sweeps, the stragglers of broadcasts that returned on a quorum an RPC
// timeout ago and that this peer never answered.
func (p *peer) failCalls(cutoff time.Time, err error) {
	var failed []call
	p.callsMu.Lock()
	for id, cl := range p.calls {
		if !cl.start.After(cutoff) {
			failed = append(failed, cl)
			delete(p.calls, id)
		}
	}
	if len(failed) > 0 {
		// A request still queued (the peer has stopped reading) goes with
		// its call, or the queue grows for as long as the peer hangs.
		p.queue = slices.DeleteFunc(p.queue, func(f outFrame) bool {
			_, live := p.calls[f.reqID]
			return f.reqID != 0 && !live
		})
	}
	p.callsMu.Unlock()
	for _, cl := range failed {
		p.finish(cl, proto.Frame{}, err)
	}
}

// sendLoop is the peer's one writer: it takes everything queued and
// writes it at once, or in pieces of about maxBatch.
func (p *peer) sendLoop() {
	defer p.n.wg.Done()
	var buf []byte
	var batch []outFrame
	for {
		select {
		case <-p.wake:
		case <-p.n.stopped:
			return
		}
		p.callsMu.Lock()
		batch, p.queue, p.queuedMsgs = p.queue, batch[:0], 0
		p.callsMu.Unlock()
		for i, f := range batch {
			batch[i] = outFrame{} // the payload is the caller's, not the queue's
			if buf = p.appendFrame(buf, f); len(buf) >= maxBatch {
				p.write(buf)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			p.write(buf)
		}
		if buf = buf[:0]; cap(buf) > maxBatch {
			buf = nil
		}
	}
}

// appendFrame encodes f onto the batch; a frame too large for the wire
// fails its call instead.
func (p *peer) appendFrame(buf []byte, f outFrame) []byte {
	buf, err := proto.AppendFrame(buf, proto.Frame{Type: f.t, ReqID: f.reqID, Payload: f.payload})
	if err != nil && f.reqID != 0 {
		p.complete(f.reqID, proto.Frame{}, err)
	}
	return buf
}

// write sends one batch on the (lazily dialed) connection. Any failure
// aborts every pending RPC: those in the batch are lost, and the rest
// wait on a connection that is gone. Dropped election messages are
// retried by timer.
func (p *peer) write(buf []byte) {
	p.mu.Lock()
	err := p.dialLocked()
	if err == nil {
		if _, err = p.conn.Write(buf); err != nil {
			p.conn.Close()
			p.conn = nil
		}
	}
	p.mu.Unlock()
	if err != nil {
		p.failCalls(p.n.clk.Now(), err)
	}
}

// dialLocked connects if there is no connection; callers hold p.mu.
func (p *peer) dialLocked() error {
	if p.conn != nil {
		return nil
	}
	now := time.Now()
	if now.UnixNano() < p.nextDialAt.Load() {
		return errors.New("replica: peer dial backoff")
	}
	c, err := net.DialTimeout("tcp", p.addr, p.n.cfg.DialTimeout)
	if err != nil {
		p.nextDialAt.Store(now.Add(100 * time.Millisecond).UnixNano())
		return err
	}
	p.attachLocked(c)
	return nil
}

// attachLocked adopts c as the peer's connection and starts its
// response reader; callers hold p.mu.
func (p *peer) attachLocked(c net.Conn) {
	p.conn = c
	p.n.wg.Add(1)
	go p.readLoop(c)
}

// readLoop demultiplexes RPC responses on the outgoing connection.
func (p *peer) readLoop(c net.Conn) {
	defer p.n.wg.Done()
	defer p.n.closeOnStop(c)()
	fr := proto.GetReader(c)
	defer proto.PutReader(fr)
	for {
		f, err := fr.Next()
		if err != nil {
			// Only the current connection's reader fails the pending
			// calls: whoever replaced or dropped c already failed those
			// that rode it, and the rest ride its successor.
			p.mu.Lock()
			current := p.conn == c
			if current {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
			if current {
				p.failCalls(p.n.clk.Now(), err)
			}
			return
		}
		if k := frameMsgKind(f.Type); k != 0 {
			// Defensive: a peer answering election traffic on this leg.
			msg, derr := decodeMsg(k, f.Payload)
			f.Recycle()
			if derr == nil {
				p.n.deliver(msg)
			}
			continue
		}
		p.complete(f.ReqID, f, nil)
	}
}

func (p *peer) close() {
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
	p.failCalls(p.n.clk.Now(), errors.New("replica: node stopped"))
}
