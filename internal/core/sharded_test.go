package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/vfs"
)

func shardedTestData(n int) []vfs.Datum {
	out := make([]vfs.Datum, n)
	for i := range out {
		kind := vfs.FileData
		if i%3 == 0 {
			kind = vfs.DirBinding
		}
		out[i] = vfs.Datum{Kind: kind, Node: vfs.NodeID(i + 2)}
	}
	return out
}

// TestShardedManagerRouting: datum→shard and write→shard routing agree
// with the strided WriteID allocation, and per-datum state lands on
// exactly one shard.
func TestShardedManagerRouting(t *testing.T) {
	s := NewShardedManager(8, FixedTerm(10*time.Second))
	now := time.Now()
	for _, d := range shardedTestData(64) {
		if g := s.Grant("c1", d, now); !g.Leased {
			t.Fatalf("grant refused on %v", d)
		}
		if !s.HoldsLease("c1", d, now) {
			t.Fatalf("HoldsLease false after grant on %v", d)
		}
		disp := s.SubmitWrite("w", d, now)
		if disp.Ready {
			t.Fatalf("write ready with live holder on %v", d)
		}
		if got := s.ShardForWrite(disp.WriteID); got != s.ShardFor(d) {
			t.Fatalf("write %d routed to shard %d, datum %v lives on %d",
				disp.WriteID, got, d, s.ShardFor(d))
		}
		if !s.Approve("c1", disp.WriteID, now) {
			t.Fatalf("approve did not ready write %d", disp.WriteID)
		}
		s.WriteApplied(disp.WriteID, now)
	}
	if n := s.LeaseCount(); n != 0 {
		t.Fatalf("LeaseCount = %d after all leases approved away", n)
	}
	m := s.Metrics()
	if m.Grants != 64 || m.WritesDeferred != 64 || m.ApprovalsApplied != 64 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestShardedManagerWriteIDsUnique: concurrent submissions across
// shards never collide on WriteID.
func TestShardedManagerWriteIDsUnique(t *testing.T) {
	s := NewShardedManager(8, FixedTerm(0))
	now := time.Now()
	var mu sync.Mutex
	seen := make(map[WriteID]bool)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(g*1000 + i + 2)}
				disp := s.SubmitWriteHeld("w", d, now)
				mu.Lock()
				if seen[disp.WriteID] {
					t.Errorf("duplicate WriteID %d", disp.WriteID)
				}
				seen[disp.WriteID] = true
				mu.Unlock()
				s.WriteApplied(disp.WriteID, now)
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedManagerExpiryHeap: a deferred write is released by lease
// expiry on the owning shard's deadline, and only that shard reports a
// deadline.
func TestShardedManagerExpiryHeap(t *testing.T) {
	clk := clock.NewSim()
	s := NewShardedManager(4, FixedTerm(10*time.Second))
	d := vfs.Datum{Kind: vfs.FileData, Node: 2}
	s.Grant("holder", d, clk.Now())
	disp := s.SubmitWrite("writer", d, clk.Now())
	if disp.Ready {
		t.Fatal("write ready with live holder")
	}
	owner := s.ShardFor(d)
	for i := 0; i < s.Shards(); i++ {
		dl, ok := s.NextDeadlineShard(i)
		if (i == owner) != ok {
			t.Fatalf("shard %d deadline ok=%v (owner %d)", i, ok, owner)
		}
		if i == owner && !dl.Equal(disp.Deadline) {
			t.Fatalf("shard %d deadline %v, want %v", i, dl, disp.Deadline)
		}
	}
	if dl, ok := s.NextDeadline(); !ok || !dl.Equal(disp.Deadline) {
		t.Fatalf("NextDeadline = %v %v", dl, ok)
	}
	clk.Advance(10*time.Second + time.Millisecond)
	got := s.ReadyWritesShard(owner, clk.Now())
	if len(got) != 1 || got[0] != disp.WriteID {
		t.Fatalf("ReadyWritesShard = %v", got)
	}
	if all := s.ReadyWrites(clk.Now()); len(all) != 1 || all[0] != disp.WriteID {
		t.Fatalf("ReadyWrites = %v", all)
	}
	s.WriteApplied(disp.WriteID, clk.Now())
	if m := s.Metrics(); m.ExpiryReleases != 1 {
		t.Fatalf("ExpiryReleases = %d", m.ExpiryReleases)
	}
}

// TestShardedManagerSnapshotMatchesSingle: a snapshot taken across
// shards matches a single Manager fed the same grants.
func TestShardedManagerSnapshotMatchesSingle(t *testing.T) {
	now := time.Now()
	s := NewShardedManager(8, FixedTerm(10*time.Second))
	single := NewManager(FixedTerm(10 * time.Second))
	data := shardedTestData(40)
	for i, d := range data {
		c := ClientID(fmt.Sprintf("c%d", i%5))
		s.Grant(c, d, now)
		single.Grant(c, d, now)
	}
	snap := s.Snapshot(now)
	want := single.Snapshot(now)
	if len(snap) != len(want) {
		t.Fatalf("snapshot length %d, want %d", len(snap), len(want))
	}
	for i := range snap {
		if snap[i] != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
}

// TestShardedManagerRecoveryWindow: the recovery window blocks writes on
// every shard and MaxTermGranted aggregates across shards.
func TestShardedManagerRecoveryWindow(t *testing.T) {
	clk := clock.NewSim()
	until := clk.Now().Add(30 * time.Second)
	s := NewShardedManager(4, FixedTerm(10*time.Second), WithRecoveryWindow(until))
	if !s.Recovering(clk.Now()) {
		t.Fatal("not recovering")
	}
	for _, d := range shardedTestData(8) {
		disp := s.SubmitWrite("w", d, clk.Now())
		if disp.Ready {
			t.Fatalf("write ready during recovery window on %v", d)
		}
		if !disp.Deadline.Equal(until) {
			t.Fatalf("deadline %v, want recovery end %v", disp.Deadline, until)
		}
	}
	clk.Advance(30*time.Second + time.Millisecond)
	ready := s.ReadyWrites(clk.Now())
	if len(ready) != 8 {
		t.Fatalf("%d writes ready after recovery, want 8", len(ready))
	}
	for i := 1; i < len(ready); i++ {
		if ready[i] <= ready[i-1] {
			t.Fatalf("ReadyWrites not sorted: %v", ready)
		}
	}
	for _, id := range ready {
		s.WriteApplied(id, clk.Now())
	}
	// Recovery over: grants flow again and MaxTermGranted aggregates the
	// max across shards.
	if g := s.Grant("c1", vfs.Datum{Kind: vfs.FileData, Node: 99}, clk.Now()); !g.Leased {
		t.Fatal("grant refused after recovery window")
	}
	if s.MaxTermGranted() != 10*time.Second {
		t.Fatalf("MaxTermGranted = %v", s.MaxTermGranted())
	}
}

// TestShardedManagerConcurrentInvariant is the §2 consistency invariant
// under real concurrency and -race: readers grant and release leases
// while writers race deferred writes against them on overlapping data,
// with approvals and expiries interleaving. Whenever a write is cleared
// for application, no other client may hold an unexpired lease on the
// datum — approval or expiry must have voided every conflicting lease.
// Cross-shard sweeps (Compact, Snapshot, Metrics, LeaseCount) run
// throughout to race against the per-shard paths.
func TestShardedManagerConcurrentInvariant(t *testing.T) {
	const (
		shards  = 8
		nData   = 24
		readers = 6
		writers = 3
		term    = 25 * time.Millisecond
	)
	s := NewShardedManager(shards, FixedTerm(term))
	data := shardedTestData(nData)
	deadline := time.Now().Add(1200 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(300 * time.Millisecond)
	}
	readerIDs := make([]ClientID, readers)
	for i := range readerIDs {
		readerIDs[i] = ClientID(fmt.Sprintf("r%d", i))
	}
	var violations atomic.Int64
	var wg sync.WaitGroup

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			c := readerIDs[i]
			for time.Now().Before(deadline) {
				d := data[rng.Intn(nData)]
				s.Grant(c, d, time.Now())
				if rng.Intn(8) == 0 {
					s.Release(c, []vfs.Datum{d}, time.Now())
				}
			}
		}(i)
	}

	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 100))
			c := ClientID(fmt.Sprintf("w%d", i))
			for time.Now().Before(deadline) {
				d := data[rng.Intn(nData)]
				disp := s.SubmitWriteHeld(c, d, time.Now())
				// Half the time deliver the callback approvals, the
				// other half let the leases run out — both release
				// paths race the readers.
				if rng.Intn(2) == 0 {
					for _, h := range disp.NeedApproval {
						s.Approve(h, disp.WriteID, time.Now())
					}
				}
				if rng.Intn(16) == 0 {
					s.CancelWrite(disp.WriteID, time.Now())
					continue
				}
				shard := s.ShardFor(d)
				applied := false
				for attempt := 0; attempt < 4000; attempt++ {
					ready := s.ReadyWritesShard(shard, time.Now())
					mine := false
					for _, id := range ready {
						if id == disp.WriteID {
							mine = true
						}
					}
					if !mine {
						time.Sleep(500 * time.Microsecond)
						continue
					}
					// Cleared: the §2 invariant must hold — no other
					// client has an unexpired lease. New leases cannot
					// appear while the write is pending, so this check
					// cannot race a fresh grant.
					now := time.Now()
					for _, rc := range readerIDs {
						if s.HoldsLease(rc, d, now) {
							violations.Add(1)
							t.Errorf("write %d on %v cleared while %s holds an unexpired lease",
								disp.WriteID, d, rc)
						}
					}
					s.WriteApplied(disp.WriteID, time.Now())
					applied = true
					break
				}
				if !applied {
					t.Errorf("write %d on %v never cleared (leases expire in %v)", disp.WriteID, d, term)
					s.CancelWrite(disp.WriteID, time.Now())
				}
			}
		}(i)
	}

	// Cross-shard sweeps racing the per-shard paths.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			s.Compact(time.Now())
			s.Snapshot(time.Now())
			s.Metrics()
			s.LeaseCount()
			s.NextDeadline()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d consistency violations", v)
	}
	// Everything expires within a term; compaction must drain all state.
	settle := time.Now().Add(2 * term)
	s.Compact(settle)
	if n := s.LeaseCount(); n != 0 {
		t.Fatalf("LeaseCount = %d after universal expiry", n)
	}
}

// TestShardedManagerShardMetrics: per-shard counters are exposed in
// shard order and sum to the aggregate Metrics(), and an imbalanced
// workload is visible in the per-shard view (the signal the /metrics
// shard series exists to surface).
func TestShardedManagerShardMetrics(t *testing.T) {
	const shards = 4
	s := NewShardedManager(shards, FixedTerm(10*time.Second))
	now := time.Now()

	// Route every grant to a single datum — one shard absorbs them all.
	hot := vfs.Datum{Kind: vfs.FileData, Node: 2}
	for i := 0; i < 12; i++ {
		if g := s.Grant(ClientID(fmt.Sprintf("c%d", i)), hot, now); !g.Leased {
			t.Fatalf("grant %d refused", i)
		}
	}
	// Spread a few more across all shards.
	for _, d := range shardedTestData(8) {
		s.Grant("cx", d, now)
	}

	per := s.ShardMetrics()
	if len(per) != shards {
		t.Fatalf("ShardMetrics() has %d entries, want %d", len(per), shards)
	}
	var sum ManagerMetrics
	for _, m := range per {
		sum.Grants += m.Grants
		sum.Refusals += m.Refusals
		sum.WritesImmediate += m.WritesImmediate
		sum.WritesDeferred += m.WritesDeferred
		sum.ApprovalsApplied += m.ApprovalsApplied
		sum.ExpiryReleases += m.ExpiryReleases
		sum.Releases += m.Releases
	}
	if total := s.Metrics(); sum != total {
		t.Fatalf("shard sum %+v != aggregate %+v", sum, total)
	}
	if hotShard := s.ShardFor(hot); per[hotShard].Grants < 12 {
		t.Fatalf("hot shard %d shows %d grants, want >= 12", hotShard, per[hotShard].Grants)
	}
}
