package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// bus is a tiny deterministic test harness: N machines, messages
// delivered after a fixed delay (plus up to jitter more, drawn from
// rng), time advanced in lockstep.
type bus struct {
	t        *testing.T // nil: record the first split in err instead of failing
	machines []*Machine
	now      time.Time
	delay    time.Duration
	jitter   time.Duration
	rng      *rand.Rand
	queue    []busMsg
	// cut[i][j] drops messages from i to j when true.
	cut [][]bool
	// down[i]: machine i has crashed. It neither ticks nor receives;
	// what it sent before is still delivered.
	down []bool
	err  error
}

type busMsg struct {
	at  time.Time
	to  int
	msg Msg
}

func newBus(t *testing.T, n int, term, allowance time.Duration) *bus {
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	b := &bus{t: t, now: start, delay: time.Millisecond}
	for i := 0; i < n; i++ {
		b.machines = append(b.machines, NewMachine(Config{
			ID: i, N: n, Term: term, Allowance: allowance, Seed: int64(i) + 7,
		}, start))
		b.cut = append(b.cut, make([]bool, n))
	}
	b.down = make([]bool, n)
	return b
}

// send enqueues outgoing messages, routed by their To field.
func (b *bus) send(from int, out []Msg) {
	for _, m := range out {
		if b.cut[from][m.To] {
			continue
		}
		d := b.delay
		if b.jitter > 0 {
			d += time.Duration(b.rng.Int63n(int64(b.jitter) + 1))
		}
		b.queue = append(b.queue, busMsg{at: b.now.Add(d), to: m.To, msg: m})
	}
}

// step advances time by d, running ticks and deliveries in order.
func (b *bus) step(d time.Duration) {
	target := b.now.Add(d)
	for b.now.Before(target) && b.err == nil {
		b.now = b.now.Add(time.Millisecond)
		// Deliveries first, then ticks. send appends replies to
		// b.queue, so drain into a local slice first.
		pending := b.queue
		b.queue = nil
		for _, qm := range pending {
			if qm.at.After(b.now) {
				b.queue = append(b.queue, qm)
				continue
			}
			if !b.down[qm.to] {
				b.send(qm.to, b.machines[qm.to].HandleMessage(b.now, qm.msg))
			}
		}
		for i, m := range b.machines {
			if !b.down[i] && !b.now.Before(m.NextWake()) {
				b.send(i, m.Tick(b.now))
			}
		}
		b.assertAtMostOneMaster()
	}
}

func (b *bus) assertAtMostOneMaster() {
	masters := 0
	for _, m := range b.machines {
		if m.IsMaster(b.now) {
			masters++
		}
	}
	if masters > 1 {
		b.err = fmt.Errorf("%v: %d simultaneous masters", b.now, masters)
		if b.t != nil {
			b.t.Fatal(b.err)
		}
	}
}

func (b *bus) master() int {
	for i, m := range b.machines {
		if m.IsMaster(b.now) {
			return i
		}
	}
	return -1
}

const (
	testTerm      = 200 * time.Millisecond
	testAllowance = 20 * time.Millisecond
)

// TestElectionConverges: from a cold start, exactly one of three
// replicas wins the master lease after the quiet period.
func TestElectionConverges(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(testTerm + 5*testTerm) // quiet period + election time
	if b.master() < 0 {
		t.Fatal("no master elected after quiet period + 5 terms")
	}
}

// TestMasterRenews: the winner keeps renewing; the mastership is
// stable over many terms.
func TestMasterRenews(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(6 * testTerm)
	first := b.master()
	if first < 0 {
		t.Fatal("no master elected")
	}
	for i := 0; i < 10; i++ {
		b.step(testTerm)
		if got := b.master(); got != first {
			t.Fatalf("mastership moved from %d to %d with no faults", first, got)
		}
	}
}

// TestFailover: crashing the master yields a new master within a few
// terms, never two at once (asserted every step).
func TestFailover(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(6 * testTerm)
	old := b.master()
	if old < 0 {
		t.Fatal("no master elected")
	}
	// Crash: cut the old master off entirely and restart its machine.
	for i := range b.machines {
		b.cut[old][i] = true
		b.cut[i][old] = true
	}
	b.machines[old].Restart(b.now)
	b.step(6 * testTerm)
	got := b.master()
	if got < 0 || got == old {
		t.Fatalf("no failover: master is %d (old %d)", got, old)
	}
}

// TestPartitionedMasterStepsDown: a master that cannot reach its peers
// loses its own lease (on its own clock) no later than the acceptors'
// view expires, so a successor can never overlap it.
func TestPartitionedMasterStepsDown(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(6 * testTerm)
	old := b.master()
	if old < 0 {
		t.Fatal("no master elected")
	}
	// Asymmetric partition: master's outbound messages dropped.
	for i := range b.machines {
		b.cut[old][i] = true
	}
	b.step(6 * testTerm)
	if b.machines[old].IsMaster(b.now) {
		t.Fatal("partitioned master still believes it is master")
	}
	if b.master() < 0 {
		t.Fatal("peers elected no successor")
	}
}

// TestRestartQuietPeriod: a restarted machine answers no election
// traffic for a full quiet window.
func TestRestartQuietPeriod(t *testing.T) {
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	m := NewMachine(Config{ID: 1, N: 3, Term: testTerm, Allowance: testAllowance}, start)
	m.Restart(start)
	during := start.Add(testTerm / 2)
	if out := m.HandleMessage(during, Msg{Kind: MsgPrepare, From: 0, Ballot: 3}); out != nil {
		t.Fatalf("machine answered prepare during quiet period: %v", out)
	}
	after := start.Add(testTerm + time.Millisecond)
	out := m.HandleMessage(after, Msg{Kind: MsgPrepare, From: 0, Ballot: 3})
	if len(out) != 1 || out[0].Kind != MsgPromise || !out[0].Ack {
		t.Fatalf("machine did not promise after quiet period: %v", out)
	}
}

// TestBallotUniqueness: ballots from different replicas never collide.
func TestBallotUniqueness(t *testing.T) {
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	seen := map[uint64]int{}
	for id := 0; id < 3; id++ {
		m := NewMachine(Config{ID: id, N: 3, Term: testTerm}, start)
		for k := 0; k < 50; k++ {
			b := m.nextBallot()
			if prev, dup := seen[b]; dup {
				t.Fatalf("ballot %d drawn by both %d and %d", b, prev, id)
			}
			seen[b] = id
		}
	}
}

// TestRoleReporting covers the Role view the admin plane exposes.
func TestRoleReporting(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	for _, m := range b.machines {
		if r := m.Role(b.now); r != RoleFollower {
			t.Fatalf("fresh machine role %v", r)
		}
	}
	b.step(6 * testTerm)
	id := b.master()
	if id < 0 {
		t.Fatal("no master")
	}
	if r := b.machines[id].Role(b.now); r != RoleMaster {
		t.Fatalf("master reports role %v", r)
	}
	if exp := b.machines[id].MasterUntil(); !exp.After(b.now) {
		t.Fatalf("master lease expiry %v not in the future (%v)", exp, b.now)
	}
}

// TestMasterBallot: the ballot view is non-zero exactly while the
// machine holds the master lease.
func TestMasterBallot(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	for _, m := range b.machines {
		if bal := m.MasterBallot(b.now); bal != 0 {
			t.Fatalf("fresh machine reports master ballot %d", bal)
		}
	}
	b.step(6 * testTerm)
	id := b.master()
	if id < 0 {
		t.Fatal("no master elected")
	}
	if bal := b.machines[id].MasterBallot(b.now); bal == 0 {
		t.Fatal("live master reports ballot 0")
	}
	for i, m := range b.machines {
		if i != id && m.MasterBallot(b.now) != 0 {
			t.Fatalf("follower %d reports a master ballot", i)
		}
	}
}

// TestAcceptsMasterFrame covers the replication fence: a follower
// honours frames stamped with the live master's current ballot,
// rejects frames from anyone else, rejects stale ballots once a newer
// one has been promised or accepted, and keeps honouring the same
// master across lease renewals (senders re-stamp the current ballot).
func TestAcceptsMasterFrame(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(6 * testTerm)
	old := b.master()
	if old < 0 {
		t.Fatal("no master elected")
	}
	follower := (old + 1) % 3
	bal := b.machines[old].MasterBallot(b.now)
	if !b.machines[follower].AcceptsMasterFrame(b.now, old, bal) {
		t.Fatal("follower rejects the live master's current ballot")
	}
	if b.machines[follower].AcceptsMasterFrame(b.now, follower, bal) {
		t.Fatal("follower accepts a frame from a non-master sender")
	}
	if b.machines[follower].AcceptsMasterFrame(b.now, old, 0) {
		t.Fatal("follower accepts a frame below its accepted ballot")
	}

	// Renewals raise the ballot; a re-stamped frame must still pass.
	b.step(4 * testTerm)
	if b.master() != old {
		t.Fatalf("mastership moved with no faults")
	}
	renewed := b.machines[old].MasterBallot(b.now)
	if !b.machines[follower].AcceptsMasterFrame(b.now, old, renewed) {
		t.Fatal("follower rejects the renewed ballot")
	}

	// Fail the master over; the deposed reign's ballot must be dead at
	// the followers even though it once was the live master's.
	for i := range b.machines {
		b.cut[old][i] = true
		b.cut[i][old] = true
	}
	b.machines[old].Restart(b.now)
	b.step(6 * testTerm)
	succ := b.master()
	if succ < 0 || succ == old {
		t.Fatalf("no failover: master is %d (old %d)", succ, old)
	}
	other := 3 - succ - old
	if b.machines[other].AcceptsMasterFrame(b.now, old, renewed) {
		t.Fatal("follower still accepts the deposed master's ballot")
	}
	if !b.machines[other].AcceptsMasterFrame(b.now, succ, b.machines[succ].MasterBallot(b.now)) {
		t.Fatal("follower rejects the successor's ballot")
	}
}

// TestMasterFramesPassOwnRenewal pins the renewal-fence rule on the
// pure machine: while the master's own renewal round is in flight — the
// acceptor has promised the new ballot but the master still stamps the
// live one — its frames keep passing; a rival's prepare stops them, and
// once the renewal is accepted the superseded ballot is dead.
func TestMasterFramesPassOwnRenewal(t *testing.T) {
	const n, master, rival = 3, 0, 1
	start := time.Unix(0, 0)
	now := start.Add(2 * testTerm) // past the quiet period
	live := uint64(1*n + master)
	renewal := uint64(2*n + master)
	for _, tc := range []struct {
		name  string
		msgs  []Msg // delivered after the lease at `live` is accepted
		frame uint64
		want  bool
	}{
		{"no round in flight", nil, live, true},
		{"own renewal promised: live ballot passes",
			[]Msg{{Kind: MsgPrepare, From: master, Ballot: renewal}}, live, true},
		{"own renewal promised: renewed ballot passes",
			[]Msg{{Kind: MsgPrepare, From: master, Ballot: renewal}}, renewal, true},
		{"own renewal promised: ballot below the accepted lease stays dead",
			[]Msg{{Kind: MsgPrepare, From: master, Ballot: renewal}}, live - n, false},
		{"own renewal accepted: the superseded ballot is dead",
			[]Msg{{Kind: MsgPrepare, From: master, Ballot: renewal},
				{Kind: MsgPropose, From: master, Ballot: renewal, Owner: master, Remaining: testTerm}}, live, false},
		{"rival's prepare promised: live ballot fenced",
			[]Msg{{Kind: MsgPrepare, From: rival, Ballot: renewal + 1}}, live, false},
		{"rival's prepare after own renewal's: both ballots fenced",
			[]Msg{{Kind: MsgPrepare, From: master, Ballot: renewal},
				{Kind: MsgPrepare, From: rival, Ballot: renewal + 1}}, renewal, false},
	} {
		m := NewMachine(Config{ID: 2, N: n, Term: testTerm, Allowance: testAllowance}, start)
		m.HandleMessage(now, Msg{Kind: MsgPrepare, From: master, Ballot: live})
		m.HandleMessage(now, Msg{Kind: MsgPropose, From: master, Ballot: live, Owner: master, Remaining: testTerm})
		for _, msg := range tc.msgs {
			m.HandleMessage(now, msg)
		}
		if got := m.AcceptsMasterFrame(now, master, tc.frame); got != tc.want {
			t.Errorf("%s: AcceptsMasterFrame(ballot %d) = %v, want %v", tc.name, tc.frame, got, tc.want)
		}
	}
}
