package check

import (
	"testing"
	"time"
)

// shardedGen is the standard sharded generator configuration: two
// replica groups of three replicas each, cross-shard renames in the op
// mix, group-targeted failover faults.
func shardedGen(p Profile) GenConfig {
	return GenConfig{Servers: 3, Groups: 2, Profile: p}
}

// TestShardedBasicSchedule hand-builds the canonical sharded shape on
// two single-replica groups: reads home to both groups, a cross-shard
// rename moves a file, a client with a stale routing belief converges
// via NOT_OWNER redirects, and the oracle watches every operation.
func TestShardedBasicSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 2, Servers: 1, Groups: 2,
		Ops: []Op{
			// f0 homes at group 0, f1 at group 1.
			{At: ms(30), Client: 0, File: 0, Kind: OpRead},
			{At: ms(40), Client: 1, File: 1, Kind: OpRead},
			// The rename's §2 clearance must invalidate client 0's own
			// read lease on f0 before ownership transfers to group 1.
			{At: ms(60), Client: 0, File: 0, Kind: OpRename},
			// Client 1 still believes f0 homes at group 0: NOT_OWNER
			// steers the write to group 1.
			{At: ms(120), Client: 1, File: 0, Kind: OpWrite},
			// Client 0's cache was invalidated by the clearance; its
			// stale route also converges via NOT_OWNER.
			{At: ms(160), Client: 0, File: 0, Kind: OpRead},
			{At: ms(180), Client: 0, File: 0, Kind: OpRead}, // cache hit at the new home
			{At: ms(220), Client: 0, Kind: OpExtend},        // renewals split per group
			{At: ms(300), Client: 0, File: 1, Kind: OpWrite},
			{At: ms(350), Client: 1, File: 1, Kind: OpRead},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("sharded schedule violated: %v", out.Violations)
	}
	if out.Renames == 0 || out.RenamesAcked == 0 {
		t.Fatalf("rename did not commit: %+v", out)
	}
	if out.Redirected == 0 {
		t.Fatalf("no stale route converged via NOT_OWNER: %+v", out)
	}
	if out.WritesAcked != 2 || out.CacheHits == 0 {
		t.Fatalf("schedule lost work: %+v", out)
	}
}

// TestShardedFailoverSchedule crosses the two fault axes: a rename is
// issued while the SOURCE group's master is about to die, and another
// after the successor takes over. The move's retry ladder, the clients'
// per-group master beliefs, and the ownership handoff must all converge
// with no oracle violation.
func TestShardedFailoverSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 2, Servers: 3, Groups: 2,
		Ops: []Op{
			{At: ms(30), Client: 0, File: 0, Kind: OpRead},
			{At: ms(50), Client: 1, File: 1, Kind: OpWrite},
			{At: ms(90), Client: 0, File: 0, Kind: OpRename},
			// Into group 0's failover window: ops must redirect to (or
			// time out onto) the successor replica.
			{At: ms(700), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(760), Client: 0, File: 0, Kind: OpRead},
			// A rename ISSUED mid-failover: the client's retry ladder
			// finds group 1's master, whose move finds group 0's
			// successor (f0 moved to group 1 at ms 90).
			{At: ms(800), Client: 1, File: 0, Kind: OpRename},
			{At: ms(1500), Client: 0, File: 0, Kind: OpRead},
			{At: ms(1600), Client: 1, File: 1, Kind: OpRead},
		},
		Faults: []Fault{
			{Kind: FaultMasterCrash, Group: 0, At: ms(600), Dur: ms(400)},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("sharded failover schedule violated: %v", out.Violations)
	}
	if out.RenamesAcked == 0 {
		t.Fatalf("no rename survived the failover: %+v", out)
	}
	if out.WritesAcked == 0 || out.Reads == 0 {
		t.Fatalf("schedule ran no work: %+v", out)
	}
}

// TestModelCheckShardedQuick explores random sharded schedules — two
// replicated groups, cross-shard renames racing writes, reads, group
// master crashes, asymmetric partitions, and replica clock drift — and
// requires every one violation-free under the same oracle.
func TestModelCheckShardedQuick(t *testing.T) {
	seeds := quickSeeds(t)
	base := baseSeed(t)
	t.Logf("exploring %d sharded schedules from base seed %d (replay: LEASECHECK_SEED=%d)", seeds, base, base)
	rep, err := Explore(ExploreConfig{
		Gen:      shardedGen(ProfileAll),
		Mode:     "random",
		Seeds:    seeds,
		BaseSeed: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		dir := t.TempDir()
		path := ""
		if rep.Counterexample != nil {
			path, _ = rep.Counterexample.Save(dir)
		}
		t.Fatalf("sharded schedule %d (seed %d) violated: %v\nshrunk counterexample: %s",
			rep.Schedules, rep.Violating.Seed, rep.Outcome.Violations, path)
	}
	t.Logf("%d sharded schedules clean", rep.Schedules)
}

// TestShardedUnreplicatedQuick covers the cheap sharded corner — two
// single-replica groups, no elections — where every schedule cost goes
// into rename/routing interleavings rather than failovers.
func TestShardedUnreplicatedQuick(t *testing.T) {
	rep, err := Explore(ExploreConfig{
		Gen:      GenConfig{Servers: 1, Groups: 2, Profile: ProfileAll},
		Mode:     "random",
		Seeds:    300,
		BaseSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("seed %d violated: %v", rep.Violating.Seed, rep.Outcome.Violations)
	}
}

// TestShardedProfilesClean localizes failures per fault dimension with
// the full two-group, three-replica topology.
func TestShardedProfilesClean(t *testing.T) {
	for _, p := range []Profile{ProfileDrift, ProfilePartition, ProfileCrash} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(ExploreConfig{
				Gen:      shardedGen(p),
				Mode:     "random",
				Seeds:    100,
				BaseSeed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violating != nil {
				t.Fatalf("seed %d violated: %v", rep.Violating.Seed, rep.Outcome.Violations)
			}
		})
	}
}

// TestShardedDeterministic extends the nondeterminism audit to sharded
// worlds: renames, move retries, NOT_OWNER redirects, per-group
// elections and moves must replay byte-identically.
func TestShardedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		runTwice(t, Generate(seed, shardedGen(ProfileAll)))
	}
}

// TestBreakRenameOrderCaught demonstrates the rename clearance is
// load-bearing: sending the move before the source's clearance —
// without first obtaining §2 approval from (or waiting out) the source
// group's leaseholders — lets a destination-group write land
// while a stale cached copy is still covered by a live source lease.
// The oracle observes it as a stale read; the same schedule is clean
// under the honest protocol.
func TestBreakRenameOrderCaught(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for seed := int64(1); seed <= 200; seed++ {
		sc := renameOrderTemplate(seed, ms)
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Ok() {
			t.Logf("seed %d caught the rename-order break: %v", seed, out.Violations[0])
			honest := sc.clone()
			honest.Break = ""
			hout, err := RunScenario(honest, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !hout.Ok() {
				t.Fatalf("honest run of the same schedule also fails: %v", hout.Violations)
			}
			return
		}
	}
	t.Fatal("no schedule caught the rename-order break in 200 seeds")
}

// renameOrderTemplate builds the minimal choreography that needs the
// clearance: client 0 caches f0 under a group-0 read lease; client 1
// renames f0 to group 1 (the sabotage commits without invalidating
// client 0) and then writes it at its new home; client 0's cache hit is
// then provably stale, inside the lease term. The seed jitters every
// instant so a range of interleavings is explored.
func renameOrderTemplate(seed int64, ms func(int) time.Duration) Scenario {
	j := func(n int64) time.Duration { return time.Duration((seed*7919+n*104729)%97) * time.Millisecond / 10 }
	return Scenario{
		Seed:    seed,
		Clients: 2, Files: 1, Servers: 1, Groups: 2,
		Break: BreakRenameOrder,
		Ops: []Op{
			{At: ms(30) + j(1), Client: 0, File: 0, Kind: OpRead},
			{At: ms(60) + j(2), Client: 1, File: 0, Kind: OpRename},
			{At: ms(90) + j(3), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(130) + j(4), Client: 0, File: 0, Kind: OpRead},
		},
	}
}
