package replica

import (
	"testing"
	"time"
)

// Counted boot rows: on the bus's virtual time with a 1 ms one-way delay,
// how many delays a quiet period costs. Each row is exact.

// quietAt reports whether m still sits out its quiet period at now.
func quietAt(m *Machine, now time.Time) bool { return m.quiet && now.Before(m.quietUntil) }

// stepUntil steps b a millisecond at a time until done holds, at most
// limit, and returns how many one-way delays that took.
func stepUntil(t *testing.T, b *bus, limit time.Duration, done func() bool) int {
	t.Helper()
	start := b.now
	for !done() {
		if b.now.Sub(start) >= limit {
			t.Fatalf("not done within %v", limit)
		}
		b.step(time.Millisecond)
	}
	return int(b.now.Sub(start) / b.delay)
}

// TestColdBootDelays: a cold group reaches its first master in a fixed
// number of one-way delays, not a term: the bus's first tick one step
// after boot, then query, answer (every peer vouches), and replica 0's
// prepare, promise, propose and accept.
func TestColdBootDelays(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{3, 7}, {5, 7}} {
		b := newBus(t, tc.n, testTerm, testAllowance)
		got := stepUntil(t, b, testTerm, func() bool { return b.master() >= 0 })
		if got != tc.want {
			t.Errorf("%d machines: first master after %d one-way delays, want %d", tc.n, got, tc.want)
		}
	}
}

// TestRestartUnderLiveMasterJoinsAtRenewal: a follower restarted under a
// live master is not vouched for by it until the master's first renewal
// that began after the query has won. The master then vouches at once,
// and the follower joins with the renewal's lease accepted: prepare,
// promise, propose, accept and the answer, five delays after the
// renewal began, and at most Term/2 after the restart.
func TestRestartUnderLiveMasterJoinsAtRenewal(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(3 * testTerm)
	master := b.master()
	if master < 0 {
		t.Fatal("no master")
	}
	mm, q := b.machines[master], b.machines[(master+1)%3]
	q.Restart(b.now)
	restarted := b.now
	// The master's lease was won before it heard the new nonce: no vouch.
	b.step(5 * time.Millisecond)
	if !quietAt(q, b.now) || q.peers[master].vouched {
		t.Fatal("the master vouched for a follower its live lease may have counted")
	}
	stepUntil(t, b, testTerm, func() bool { return mm.prp.preparing })
	got := stepUntil(t, b, testTerm, func() bool { return !quietAt(q, b.now) })
	if owner, live := q.Master(b.now); !live || owner != master {
		t.Fatalf("restarted follower left its quiet period without the master's lease (%d, %v)", owner, live)
	}
	if want := 5; got != want {
		t.Errorf("follower joined %d one-way delays after the master's renewal began, want %d", got, want)
	}
	if joined := b.now.Sub(restarted); joined > testTerm/2 {
		t.Errorf("follower joined %v after its restart, want at most Term/2", joined)
	}
}

// TestRestartWithPeerDownKeepsFullQuiet: one peer down means one vouch
// missing, so a restarted machine sits out the whole quiet period.
func TestRestartWithPeerDownKeepsFullQuiet(t *testing.T) {
	b := newBus(t, 3, testTerm, testAllowance)
	b.step(3 * testTerm)
	master := b.master()
	if master < 0 {
		t.Fatal("no master")
	}
	q, down := (master+1)%3, (master+2)%3
	b.down[down] = true
	b.machines[q].Restart(b.now)
	got := stepUntil(t, b, 2*testTerm, func() bool { return !quietAt(b.machines[q], b.now) })
	if want := int(testTerm / b.delay); got != want {
		t.Errorf("restarted machine with a peer down left its quiet period after %d delays, want %d (one term)", got, want)
	}
}
