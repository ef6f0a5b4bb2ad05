// Package replica implements a PaxosLease-style diskless master lease
// among N leasesrv replicas (Trencseni et al., "PaxosLease: Diskless
// Paxos for Leases"). Exactly one replica at a time — the master —
// grants file leases to clients; the others redirect. The master's
// authority is itself a lease: it expires on the master's own clock a
// margin ε before it expires on any acceptor's clock, so a partitioned
// master provably steps down before its peers can elect a successor.
//
// The negotiation is diskless: acceptors persist nothing. A restarted
// replica sits out a quiet period, answering no prepare or propose, and
// asks its peers to vouch for its new nonce. A peer vouches unless it
// is master by a lease, or candidate in a round, begun before it first
// heard the nonce — the only rounds that can have counted a forgotten
// promise. Once every peer has vouched the replica joins; while any is
// silent it waits out a full term, as the paper's §2 recovering server
// does only when it cannot learn which leases are outstanding.
//
// The package is split in two layers:
//
//   - Machine (this file) and Round (round.go): the pure state machines
//     of the election and of a replication quorum. They own no
//     goroutines, sockets, or timers; callers feed them messages and
//     explicit `now` instants and they say what to send. The model
//     checker (internal/check) drives both per simulated replica.
//   - Node (node.go): the TCP runtime that runs them over
//     internal/proto framing with internal/clock timers — the form
//     cmd/leasesrv embeds.
package replica

import (
	"fmt"
	"math/rand"
	"time"
)

// MsgKind identifies an election message between replicas.
type MsgKind uint8

// Election message kinds; they map 1:1 onto proto.TPrepare..TAccept,
// TQuery and TAnswer on the wire. MsgQuery and MsgAnswer carry the
// quiet period's vouching (see Machine.vouches).
const (
	MsgPrepare MsgKind = iota + 1
	MsgPromise
	MsgPropose
	MsgAccept
	MsgQuery
	MsgAnswer
)

var msgNames = [...]string{
	MsgPrepare: "prepare", MsgPromise: "promise", MsgPropose: "propose",
	MsgAccept: "accept", MsgQuery: "query", MsgAnswer: "answer",
}

func (k MsgKind) String() string {
	if int(k) < len(msgNames) && msgNames[k] != "" {
		return msgNames[k]
	}
	return fmt.Sprintf("msg%d", uint8(k))
}

// Msg is one election message. Remaining is meaningful on MsgPromise
// (the acceptor's view of how long its accepted lease still runs;
// zero if none) and on MsgPropose (the lease duration being granted).
// Owner is the lease owner being reported (MsgPromise) or proposed
// (MsgPropose). Outgoing messages carry an explicit To so transports
// route without positional conventions.
type Msg struct {
	Kind      MsgKind
	From      int
	To        int
	Ballot    uint64
	Owner     int
	Remaining time.Duration
	// Ack reports whether a promise/accept is positive; a negative
	// reply (rejected ballot) just updates the proposer's ballot floor.
	// On MsgAnswer it reports that the sender vouches for Echo.
	Ack bool
	// Nonce names the sender's incarnation; Echo is the querier's nonce
	// an answer replies to. On MsgQuery and MsgAnswer, Ballot carries
	// the sender's ballot floor.
	Nonce, Echo uint64
}

// Role is a replica's current standing in the election.
type Role string

// Roles. A replica is Master only while its own timer says the master
// lease it won is still valid (minus ε); Candidate while it has an
// election round in flight; Follower otherwise.
const (
	RoleFollower  Role = "follower"
	RoleCandidate Role = "candidate"
	RoleMaster    Role = "master"
)

// Config parameterizes a Machine.
type Config struct {
	// ID is this replica's index in [0, N).
	ID int
	// N is the replica-set size.
	N int
	// Term is the master-lease duration T. The winner's authority runs
	// [prepare-send, prepare-send+T-Allowance) on its own clock and
	// [receipt, receipt+T) on each acceptor's.
	Term time.Duration
	// Allowance is the clock margin ε subtracted from the master's own
	// view of its lease, covering bounded drift between replicas.
	Allowance time.Duration
	// Quiet is how long a freshly-started machine stays silent before
	// joining elections when some peer does not vouch for it — the
	// diskless-safety window. It must be at least Term; zero defaults
	// to Term.
	Quiet time.Duration
	// Seed drives election backoff jitter deterministically.
	Seed int64
	// vouchAll makes every answer vouch, whatever rounds are live: the
	// broken rule the election fuzz must catch. Set only by tests.
	vouchAll bool
}

func (c Config) withDefaults() Config {
	if c.Term == 0 {
		c.Term = 2 * time.Second
	}
	if c.Quiet < c.Term {
		c.Quiet = c.Term
	}
	return c
}

// acceptor is the promise/accept half of the machine: what this
// replica has guaranteed to the rest of the set.
type acceptor struct {
	promised uint64 // highest ballot promised
	accepted uint64 // ballot of the accepted lease, 0 if none
	owner    int    // owner of the accepted lease
	expires  time.Time
}

// proposer is the prepare/propose half: this replica's own attempt to
// win (or renew) the master lease.
type proposer struct {
	ballot    uint64
	preparing bool
	proposing bool
	sentAt    time.Time // prepare send instant anchoring the lease
	round     uint64    // this round's index in Machine.rounds
	promises  int
	accepts   int
	// othersLease reports that some prepare round saw a live lease
	// owned by another replica; the round is abandoned.
	othersLease bool
}

// peerView is what a machine knows of one peer's incarnation.
type peerView struct {
	// nonce is the peer's incarnation as last heard (0: none), and
	// heardAt the value of Machine.rounds when it was first heard: a
	// round with an index above it began after this machine heard the
	// incarnation, so it cannot have counted a promise the peer forgot.
	nonce, heardAt uint64
	// vouched: the peer vouched for this machine's nonce. refused: this
	// machine last answered the peer's nonce without vouching.
	vouched, refused bool
	// held is the last election message the peer sent while this
	// machine was quiet (Kind 0: none), handled when it leaves early.
	held Msg
}

// Machine is the pure PaxosLease state machine for one replica. It is
// not safe for concurrent use; Node serializes access.
type Machine struct {
	cfg Config
	acc acceptor
	prp proposer
	rng *rand.Rand

	// quiet gates all participation after (re)start; it ends once every
	// peer vouches for nonce (vouchedBy counts them), or at quietUntil.
	quiet                 bool
	quietUntil, nextQuery time.Time
	nonce                 uint64
	peers                 []peerView
	vouchedBy             int
	// rounds counts the rounds this incarnation began; masterRound is
	// the index of the one that won the master lease it holds.
	rounds, masterRound uint64
	// masterUntil is this replica's own conservative view of the lease
	// it holds (zero when not master).
	masterUntil time.Time
	// masterBallot is the ballot the current master lease was won (or
	// last renewed) with; zero when not master. Replication frames are
	// stamped with it so acceptors can fence out frames from an older
	// lease incarnation.
	masterBallot uint64
	// ballotFloor is the highest ballot seen anywhere, so the next
	// round starts above it.
	ballotFloor uint64
	// backoffUntil delays the next election attempt after a failed
	// round, breaking simultaneous-candidate livelock.
	backoffUntil time.Time
	// wake is the earliest instant Tick must next run.
	wake time.Time
}

// NewMachine returns a machine that stays quiet until every peer has
// vouched for it, or until start+Quiet, and then campaigns whenever it
// observes no live master.
func NewMachine(cfg Config, start time.Time) *Machine {
	m := &Machine{}
	m.incarnate(cfg.withDefaults(), cfg.Seed^int64(cfg.ID)<<32^0x9e3779b9, start)
	return m
}

// incarnate resets m to a new incarnation booted at now. The nonce mixes
// the seed with the boot instant, so a process restarted with the same
// configured seed still names itself afresh, and draws nothing from rng.
func (m *Machine) incarnate(cfg Config, seed int64, now time.Time) {
	*m = Machine{cfg: cfg, rng: rand.New(rand.NewSource(seed)), quiet: true, wake: now}
	m.quietUntil = now.Add(cfg.Quiet)
	m.nonce = uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(now.UnixNano()) | 1
	m.peers = make([]peerView, cfg.N)
}

// Config reports the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// IsMaster reports whether this replica holds the master lease at now,
// judged conservatively on its own clock (term minus ε).
func (m *Machine) IsMaster(now time.Time) bool {
	return !m.masterUntil.IsZero() && now.Before(m.masterUntil)
}

// MasterUntil reports when this replica's own master lease expires on
// its clock (zero when it is not master).
func (m *Machine) MasterUntil() time.Time { return m.masterUntil }

// MasterBallot reports the ballot the master lease held at now was won
// with, and zero when this replica is not master. The master stamps
// replication frames with it; see AcceptsMasterFrame.
func (m *Machine) MasterBallot(now time.Time) uint64 {
	if !m.IsMaster(now) {
		return 0
	}
	return m.masterBallot
}

// AcceptsMasterFrame is the replication fence: it reports whether a
// frame claiming to come from replica `from` under election ballot
// `ballot` should be honoured at now. The claim is checked against this
// acceptor's own election state, not the frame's say-so: `from` must be
// the replica this acceptor currently believes holds a live master
// lease, and the ballot must be no older than the lease it accepted nor
// than anything it has promised a rival — so a deposed master's
// late-flushed frames, stamped with the ballot of a lease a successor
// has since superseded, die here instead of poisoning per-path sequence
// state. A promise made to `from` itself (ballots are k·N + ID, so
// promised mod N names its proposer) is the master's own renewal round
// in flight and deposes nobody: frames stamped with the still-live
// ballot keep passing through it, where fencing them would fail the
// master's writes for two message delays at every renewal. Frames from
// a renewal the acceptor has not yet processed (ballot above its
// accepted one, same owner) pass; the master's one-shot retry covers
// the opposite race.
func (m *Machine) AcceptsMasterFrame(now time.Time, from int, ballot uint64) bool {
	owner, live := m.Master(now)
	if !live || owner != from || ballot < m.acc.accepted {
		return false
	}
	return ballot >= m.acc.promised || int(m.acc.promised%uint64(m.cfg.N)) == from
}

// Master reports which replica this machine believes holds the master
// lease at now, and whether it believes anyone does. The belief comes
// from its acceptor state — the lease it last accepted — so it is
// exactly as stale as PaxosLease allows beliefs to be.
func (m *Machine) Master(now time.Time) (int, bool) {
	if m.IsMaster(now) {
		return m.cfg.ID, true
	}
	if m.acc.accepted != 0 && now.Before(m.acc.expires) {
		return m.acc.owner, true
	}
	return -1, false
}

// Role classifies the replica at now.
func (m *Machine) Role(now time.Time) Role {
	switch {
	case m.IsMaster(now):
		return RoleMaster
	case m.prp.preparing || m.prp.proposing:
		return RoleCandidate
	default:
		return RoleFollower
	}
}

// NextWake reports the earliest instant at which Tick has work to do.
func (m *Machine) NextWake() time.Time { return m.wake }

// Restart re-enters the post-boot quiet period, as after a crash: all
// volatile promise/accept state is gone and the machine must not
// answer election traffic until no live round or lease can count a
// promise it might have made.
func (m *Machine) Restart(now time.Time) {
	m.incarnate(m.cfg, m.rng.Int63(), now)
}

// nextBallot returns a fresh ballot unique to this replica: ballots
// are k*N + ID, so no two replicas ever share one.
func (m *Machine) nextBallot() uint64 {
	n := uint64(m.cfg.N)
	id := uint64(m.cfg.ID)
	k := m.ballotFloor/n + 1
	b := k*n + id
	for b <= m.ballotFloor {
		k++
		b = k*n + id
	}
	m.ballotFloor = b
	return b
}

// majority is the quorum size: floor(N/2)+1.
func (m *Machine) majority() int { return m.cfg.N/2 + 1 }

// Tick runs the machine's timers at now and returns messages to send.
// Callers must invoke it no later than NextWake and may invoke it any
// time earlier.
func (m *Machine) Tick(now time.Time) []Msg {
	// Master lease expired on our own clock: step down before any
	// acceptor could have granted a successor.
	if !m.masterUntil.IsZero() && !now.Before(m.masterUntil) {
		m.masterUntil = time.Time{}
		m.masterBallot = 0
	}
	if m.quiet {
		if now.Before(m.quietUntil) && m.vouchedBy < m.cfg.N-1 {
			return m.query(now)
		}
		m.quiet = false
	}
	// Renew early (at T/2 before our own expiry) while master;
	// otherwise campaign when nobody holds a live lease.
	if m.IsMaster(now) {
		if m.prp.preparing || m.prp.proposing {
			return nil // renewal round already in flight
		}
		renewAt := m.masterUntil.Add(-m.cfg.Term / 2)
		if now.Before(renewAt) {
			m.wake = renewAt
			return nil
		}
		return m.startRound(now)
	}
	if m.prp.preparing || m.prp.proposing {
		// A round is in flight; if it stalls (lost messages), retry
		// after a full term plus jitter.
		if now.Before(m.wake) {
			return nil
		}
		m.abandonRound(now)
	}
	if now.Before(m.backoffUntil) {
		m.wake = m.backoffUntil
		return nil
	}
	if _, live := m.Master(now); live {
		m.wake = m.acc.expires
		return nil
	}
	return m.startRound(now)
}

// query asks every peer that has not vouched yet, once per queryEvery.
func (m *Machine) query(now time.Time) []Msg {
	var out []Msg
	if !now.Before(m.nextQuery) {
		m.nextQuery = now.Add(m.queryEvery())
		for i, p := range m.peers {
			if !p.vouched && i != m.cfg.ID {
				out = append(out, m.msg(MsgQuery, i))
			}
		}
	}
	m.wake = m.nextQuery
	if m.quietUntil.Before(m.wake) {
		m.wake = m.quietUntil
	}
	return out
}

// msg starts a message of kind k to peer to, stamped with the nonce; a
// query or answer carries the ballot floor too, so a restarted machine
// campaigns above every ballot its peers have seen.
func (m *Machine) msg(k MsgKind, to int) Msg {
	out := Msg{Kind: k, From: m.cfg.ID, To: to, Nonce: m.nonce}
	if k == MsgQuery || k == MsgAnswer {
		out.Ballot = m.ballotFloor
	}
	return out
}

// queryEvery is the period of a quiet machine's queries, the step by
// which replica IDs stagger the first campaign after an early leave, and
// how long a promise to a peer's round holds off a round of one's own.
func (m *Machine) queryEvery() time.Duration { return max(m.cfg.Allowance, m.cfg.Term/10) }

// vouches reports whether this machine vouches for a peer incarnation
// it first heard when m.rounds was heard: no lease it holds and no
// round it runs began before then, so none counted a promise or an
// acceptance the peer's previous incarnations made and forgot.
func (m *Machine) vouches(now time.Time, heard uint64) bool {
	switch {
	case m.cfg.vouchAll:
		return true
	case m.IsMaster(now) && m.masterRound <= heard:
		return false
	case (m.prp.preparing || m.prp.proposing) && m.prp.round <= heard:
		return false
	}
	return true
}

// onQuery handles a query or an answer: it notes the sender's nonce,
// answers a query, and counts an answer's vouch. The last vouch ends
// the quiet period, and the election messages held during it are
// handled then.
func (m *Machine) onQuery(now time.Time, msg Msg) []Msg {
	p := &m.peers[msg.From]
	if p.nonce != msg.Nonce {
		p.nonce, p.heardAt = msg.Nonce, m.rounds
	}
	m.ballotFloor = max(m.ballotFloor, msg.Ballot)
	if msg.Kind == MsgQuery {
		ans := m.msg(MsgAnswer, msg.From)
		ans.Echo, ans.Ack = msg.Nonce, m.vouches(now, p.heardAt)
		p.refused = !ans.Ack
		out := []Msg{ans}
		if m.quiet && !p.vouched {
			// A peer that was down when asked is up now: ask it again.
			out = append(out, m.msg(MsgQuery, msg.From))
		}
		return out
	}
	if !msg.Ack || msg.Echo != m.nonce || !m.quiet || !now.Before(m.quietUntil) {
		return nil
	}
	if !p.vouched {
		p.vouched, m.vouchedBy = true, m.vouchedBy+1
	}
	if m.vouchedBy < m.cfg.N-1 {
		return nil
	}
	// Peers that left together campaign in replica-ID order, a query
	// period apart, so the first one's round is not cut short by the
	// next's higher ballot.
	m.quiet, m.wake = false, now
	m.backoffUntil = now.Add(time.Duration(m.cfg.ID) * m.queryEvery())
	var out []Msg
	for i := range m.peers {
		// A message an earlier incarnation of the peer sent is stale.
		if held := m.peers[i].held; held.Kind != 0 && held.Nonce == m.peers[i].nonce {
			out = append(out, m.HandleMessage(now, held)...)
		}
		m.peers[i].held = Msg{}
	}
	return out
}

// revouch answers again, vouching, every peer it refused that it can
// vouch for now — after a renewal won, so a follower restarted under a
// live master joins with no wait for its next query.
func (m *Machine) revouch(now time.Time) []Msg {
	var out []Msg
	for i := range m.peers {
		if p := &m.peers[i]; p.refused && m.vouches(now, p.heardAt) {
			ans := m.msg(MsgAnswer, i)
			ans.Echo, ans.Ack, p.refused = p.nonce, true, false
			out = append(out, ans)
		}
	}
	return out
}

// startRound begins a prepare phase and returns the prepares to send.
func (m *Machine) startRound(now time.Time) []Msg {
	b := m.nextBallot()
	m.rounds++
	m.prp = proposer{ballot: b, preparing: true, sentAt: now, round: m.rounds}
	// Stall timeout: if the round hasn't completed in a term, abandon
	// and re-campaign with jittered backoff.
	m.wake = now.Add(m.cfg.Term)
	out := make([]Msg, 0, m.cfg.N)
	for i := 0; i < m.cfg.N; i++ {
		if i == m.cfg.ID {
			continue
		}
		p := m.msg(MsgPrepare, i)
		p.Ballot = b
		out = append(out, p)
	}
	// Self-delivery: count our own promise/accept locally. (At N=1
	// the self promise completes the round immediately.)
	out = append(out, m.handlePrepareSelf(now)...)
	return out
}

func (m *Machine) abandonRound(now time.Time) {
	m.prp = proposer{}
	// Jittered backoff within [T/2, T): simultaneous candidates that
	// collided draw different waits and separate.
	half := m.cfg.Term / 2
	m.backoffUntil = now.Add(half + time.Duration(m.rng.Int63n(int64(half)+1)))
	if m.backoffUntil.After(m.wake) || m.wake.Before(now) {
		m.wake = m.backoffUntil
	}
}

// handlePrepareSelf applies our own prepare to our own acceptor and
// feeds the resulting promise straight back to the proposer, returning
// any propose fan-out it triggers.
func (m *Machine) handlePrepareSelf(now time.Time) []Msg {
	rep := m.acceptPrepare(now, m.cfg.ID, m.prp.ballot)
	return m.onPromise(now, rep)
}

// HandleMessage applies one incoming election message at now and
// returns messages to send in response. Queries are answered at any
// time; other messages during the quiet period go unanswered, the last
// from each peer held for the moment the machine leaves it early.
func (m *Machine) HandleMessage(now time.Time, msg Msg) []Msg {
	if msg.From < 0 || msg.From >= len(m.peers) || msg.From == m.cfg.ID {
		return nil
	}
	if msg.Kind == MsgQuery || msg.Kind == MsgAnswer {
		return m.onQuery(now, msg)
	}
	if m.quiet && now.Before(m.quietUntil) {
		m.peers[msg.From].held = msg
		return nil
	}
	switch msg.Kind {
	case MsgPrepare:
		rep := m.acceptPrepare(now, msg.From, msg.Ballot)
		return []Msg{rep}
	case MsgPropose:
		rep := m.acceptPropose(now, msg)
		return []Msg{rep}
	case MsgPromise:
		return m.onPromise(now, msg)
	case MsgAccept:
		m.onAccept(now, msg)
		return m.revouch(now)
	}
	return nil
}

// acceptPrepare is the acceptor's prepare handler: promise the ballot
// if it is the highest seen, reporting any live accepted lease so the
// proposer can back off.
func (m *Machine) acceptPrepare(now time.Time, from int, ballot uint64) Msg {
	if ballot > m.ballotFloor {
		m.ballotFloor = ballot
	}
	rep := m.msg(MsgPromise, from)
	rep.Ballot = ballot
	if ballot <= m.acc.promised {
		return rep // Ack stays false: ballot too old.
	}
	m.acc.promised = ballot
	rep.Ack = true
	if from != m.cfg.ID && m.backoffUntil.Before(now.Add(m.queryEvery())) {
		// Give the round just promised a query period to win before
		// starting one that would cut it short.
		m.backoffUntil = now.Add(m.queryEvery())
	}
	if m.acc.accepted != 0 && now.Before(m.acc.expires) {
		rep.Owner = m.acc.owner
		rep.Remaining = m.acc.expires.Sub(now)
	} else {
		rep.Owner = -1
		m.acc.accepted = 0
	}
	return rep
}

// acceptPropose is the acceptor's propose handler: accept the lease if
// the ballot still holds the promise.
func (m *Machine) acceptPropose(now time.Time, msg Msg) Msg {
	rep := m.msg(MsgAccept, msg.From)
	rep.Ballot = msg.Ballot
	if msg.Ballot < m.acc.promised {
		return rep
	}
	m.acc.promised = msg.Ballot
	m.acc.accepted = msg.Ballot
	m.acc.owner = msg.Owner
	m.acc.expires = now.Add(msg.Remaining)
	rep.Ack = true
	return rep
}

// onPromise counts a promise toward the proposer's prepare quorum.
func (m *Machine) onPromise(now time.Time, msg Msg) []Msg {
	if !m.prp.preparing || msg.Ballot != m.prp.ballot {
		return nil
	}
	if !msg.Ack {
		m.abandonRound(now)
		return nil
	}
	if msg.Owner >= 0 && msg.Owner != m.cfg.ID && msg.Remaining > 0 {
		// A live lease owned by someone else: abandon and wait it out.
		m.prp.othersLease = true
	}
	m.prp.promises++
	if m.prp.promises < m.majority() {
		return nil
	}
	if m.prp.othersLease {
		m.abandonRound(now)
		return nil
	}
	// Majority of empty (or self-owned) promises: propose ourselves.
	m.prp.preparing = false
	m.prp.proposing = true
	out := make([]Msg, 0, m.cfg.N)
	prop := m.msg(MsgPropose, m.cfg.ID)
	prop.Ballot, prop.Owner, prop.Remaining = m.prp.ballot, m.cfg.ID, m.cfg.Term
	for i := 0; i < m.cfg.N; i++ {
		if i == m.cfg.ID {
			continue
		}
		p := prop
		p.To = i
		out = append(out, p)
	}
	prop.To = m.cfg.ID
	self := m.acceptPropose(now, prop)
	m.onAccept(now, self)
	return out
}

// onAccept counts an accept; a majority makes us master. The lease is
// anchored at the prepare send instant on OUR clock minus ε, so it
// expires here strictly before it expires at any acceptor.
func (m *Machine) onAccept(now time.Time, msg Msg) {
	if !m.prp.proposing || msg.Ballot != m.prp.ballot || !msg.Ack {
		return
	}
	m.prp.accepts++
	if m.prp.accepts < m.majority() {
		return
	}
	until := m.prp.sentAt.Add(m.cfg.Term - m.cfg.Allowance)
	ballot, round := m.prp.ballot, m.prp.round
	m.prp = proposer{}
	if !until.After(now) {
		// The round took longer than the lease itself; worthless.
		m.wake = now
		return
	}
	m.masterUntil = until
	m.masterBallot, m.masterRound = ballot, round
	// Wake at the renewal point.
	m.wake = until.Add(-m.cfg.Term / 2)
	if m.wake.Before(now) {
		m.wake = now
	}
}
