package replica

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"
)

// fuzzRounds is the per-run budget knob shared with the model checker:
// LEASECHECK_SEEDS scales the number of random schedules (the nightly
// deep run sets it to 20000), defaulting to a quick 300.
func fuzzRounds(t *testing.T) int {
	if s := os.Getenv("LEASECHECK_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad LEASECHECK_SEEDS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 40
	}
	return 300
}

// TestElectionFuzz throws random crash/restart and link-cut schedules
// at a replica set and checks the two properties everything above is
// built on: never two masters at once (asserted every simulated
// millisecond by the bus), and — once the faults stop — a master
// emerges within a bounded number of terms.
func TestElectionFuzz(t *testing.T) {
	rounds := fuzzRounds(t)
	for seed := 0; seed < rounds; seed++ {
		if err := fuzzSeed(seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// vouchAllFirstSplit is the first fuzz seed at which machines that
// vouch regardless of round order elect two masters at once.
const vouchAllFirstSplit = 9

// TestElectionFuzzCatchesVouchAll shows the fuzz sees the hazard the
// vouch rule guards: with every answer vouching, a restarted acceptor
// joins while a lease that counted its forgotten acceptance is live,
// and the fuzz reports two masters at the pinned seed, which the honest
// rule runs clean.
func TestElectionFuzzCatchesVouchAll(t *testing.T) {
	for seed := 0; seed < vouchAllFirstSplit; seed++ {
		if err := fuzzSeed(seed, true); err != nil {
			t.Fatalf("seed %d, before the pinned %d: %v", seed, vouchAllFirstSplit, err)
		}
	}
	if err := fuzzSeed(vouchAllFirstSplit, true); err == nil {
		t.Fatalf("seed %d: vouching for everyone elected no second master", vouchAllFirstSplit)
	}
	if err := fuzzSeed(vouchAllFirstSplit, false); err != nil {
		t.Fatalf("seed %d: honest rule: %v", vouchAllFirstSplit, err)
	}
}

// fuzzSeed runs one schedule: ~8 terms of random crashes and link cuts
// over 3 or 5 machines with 1-4 ms message delays, then — on every
// other seed — a whole-group restart. It returns the first violation:
// two masters at once, no master within 8 terms of the faults healing,
// or none within 1 term of a whole-group restart ending.
func fuzzSeed(seed int, vouchAll bool) error {
	rng := rand.New(rand.NewSource(int64(seed)*2654435761 + 13))
	n := 3 + rng.Intn(2)*2 // 3 or 5 replicas
	b := newBus(nil, n, testTerm, testAllowance)
	b.jitter, b.rng = 3*time.Millisecond, rng
	for _, m := range b.machines {
		m.cfg.vouchAll = vouchAll
	}
	downFor := make([]int, n) // ms until restart; 0 = up
	// restartDue counts the machines down and restarts those whose time
	// has come.
	restartDue := func() int {
		crashed := 0
		for v := range downFor {
			if downFor[v] == 0 {
				continue
			}
			if downFor[v]--; downFor[v] == 0 {
				b.down[v] = false
				b.machines[v].Restart(b.now)
			} else {
				crashed++
			}
		}
		return crashed
	}

	// Fault phase: ~8 terms of random crashes and link cuts. A majority
	// stays up so progress remains possible afterwards.
	steps := int(8 * testTerm / time.Millisecond)
	for s := 0; s < steps && b.err == nil; s++ {
		crashed := restartDue()
		if rng.Intn(200) == 0 {
			if v := rng.Intn(n); downFor[v] == 0 && crashed < (n-1)/2 {
				downFor[v] = 1 + rng.Intn(int(2*testTerm/time.Millisecond))
				b.down[v] = true
			}
		}
		if rng.Intn(400) == 0 {
			// Transient one-way link cut, left for the fault phase's end.
			b.cut[rng.Intn(n)][rng.Intn(n)] = true
		}
		b.step(time.Millisecond)
	}

	// Heal every link, restart whoever is down, and require convergence.
	// The longest wait is a restarted machine's full quiet period (a
	// peer that stayed silent) plus a few contended election rounds.
	for i := 0; i < n; i++ {
		if downFor[i] > 0 {
			downFor[i] = 0
			b.down[i] = false
			b.machines[i].Restart(b.now)
		}
		for j := 0; j < n; j++ {
			b.cut[i][j] = false
		}
	}
	b.step(8 * testTerm)
	if b.err != nil {
		return b.err
	}
	if b.master() < 0 {
		return fmt.Errorf("no master within 8 terms after faults healed")
	}
	if seed%2 == 1 {
		return nil
	}

	// Whole-group restart: every machine crashes at once and comes back
	// after its own 1-100 ms, while what it sent before still arrives.
	// Nobody holds a lease that counted a forgotten promise, so the
	// group must not sit out the quiet period.
	for v := range downFor {
		downFor[v] = 1 + rng.Intn(100)
		b.down[v] = true
	}
	for restartDue() > 0 && b.err == nil {
		b.step(time.Millisecond)
	}
	b.step(testTerm)
	if b.err != nil {
		return b.err
	}
	if b.master() < 0 {
		return fmt.Errorf("no master within 1 term of a whole-group restart")
	}
	return nil
}
