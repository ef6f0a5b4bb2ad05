package check

import (
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/proto"
	"leases/internal/replica"
	"leases/internal/srvcore"
	"leases/internal/vfs"
)

// replicatedGen is the standard 3-replica generator configuration the
// replicated gates explore.
func replicatedGen(p Profile) GenConfig {
	return GenConfig{Servers: 3, Profile: p}
}

// TestReplicatedBasicSchedule hand-builds the canonical failover
// shape: a 3-replica set elects a master, serves a read/write mix,
// loses the master mid-grant, elects a successor, and keeps serving —
// with the sequential-consistency oracle watching every operation.
func TestReplicatedBasicSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 2, Servers: 3,
		Ops: []Op{
			{At: ms(30), Client: 0, File: 0, Kind: OpRead},
			{At: ms(55), Client: 0, File: 0, Kind: OpRead}, // cache hit on the lease
			{At: ms(70), Client: 0, Kind: OpExtend},
			{At: ms(90), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(110), Client: 1, File: 1, Kind: OpWrite},
			// The failover window: ops land while the master is dead and
			// must redirect to (or time out onto) the successor.
			{At: ms(700), Client: 0, File: 0, Kind: OpRead},
			{At: ms(750), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(1400), Client: 0, File: 0, Kind: OpRead},
			{At: ms(1500), Client: 1, File: 1, Kind: OpRead},
		},
		Faults: []Fault{
			{Kind: FaultMasterCrash, At: ms(600), Dur: ms(400)},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("failover schedule violated: %v", out.Violations)
	}
	if out.WritesAcked == 0 {
		t.Fatalf("no write survived the failover: %+v", out)
	}
	if out.Reads == 0 || out.Extends == 0 || out.CacheHits == 0 {
		t.Fatalf("schedule ran no work: %+v", out)
	}
}

// TestReplicatedAsymPartitionSchedule pins the "partitioned master on
// a stale lease" shape: the master keeps hearing the world while
// everything it sends is held until the window closes. It must step
// down on its own clock, its flushed backlog must be fenced off, and
// every client op must stay sequentially consistent.
func TestReplicatedAsymPartitionSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 1, Servers: 3,
		Ops: []Op{
			{At: ms(30), Client: 0, File: 0, Kind: OpRead},
			{At: ms(50), Client: 1, File: 0, Kind: OpWrite},
			// Into the partition window: the old master receives these
			// but its replies hang in the void.
			{At: ms(650), Client: 0, File: 0, Kind: OpRead},
			{At: ms(700), Client: 1, File: 0, Kind: OpWrite},
			// After heal: the flushed backlog arrives late and must not
			// poison anyone.
			{At: ms(1600), Client: 0, File: 0, Kind: OpRead},
			{At: ms(1700), Client: 1, File: 0, Kind: OpRead},
		},
		Faults: []Fault{
			{Kind: FaultAsymPartition, At: ms(600), Dur: ms(500)},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("asym-partition schedule violated: %v", out.Violations)
	}
	if out.Reads == 0 || out.Writes == 0 {
		t.Fatalf("schedule ran no work: %+v", out)
	}
}

// TestModelCheckReplicatedQuick is the replicated counterpart of
// TestModelCheckQuick: random multi-server schedules — master crashes,
// asymmetric master partitions, follower crashes, independent replica
// clock drift at the ε budget, plus the whole single-server grammar —
// must stay violation-free under the same oracle.
func TestModelCheckReplicatedQuick(t *testing.T) {
	seeds := quickSeeds(t)
	base := baseSeed(t)
	t.Logf("exploring %d replicated schedules from base seed %d (replay: LEASECHECK_SEED=%d)", seeds, base, base)
	rep, err := Explore(ExploreConfig{
		Gen:      replicatedGen(ProfileAll),
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
		t.Fatalf("replicated schedule %d (seed %d) violated: %v\nshrunk counterexample: %s",
			rep.Schedules, rep.Violating.Seed, rep.Outcome.Violations, path)
	}
	t.Logf("%d replicated schedules clean", rep.Schedules)
}

// TestReplicatedProfilesClean localizes failures per fault dimension,
// like TestProfilesClean but with three replicas.
func TestReplicatedProfilesClean(t *testing.T) {
	for _, p := range []Profile{ProfileDrift, ProfilePartition, ProfileCrash} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(ExploreConfig{
				Gen:      replicatedGen(p),
				Mode:     "random",
				Seeds:    150,
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

// TestReplicatedDeterministic extends the nondeterminism audit to
// replicated worlds: elections, replication frames, promotion syncs
// and failovers must replay byte-identically.
func TestReplicatedDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		runTwice(t, Generate(seed, replicatedGen(ProfileAll)))
	}
}

// TestBreakQuietCaught demonstrates the election quiet period is
// load-bearing: with restarted replicas rejoining immediately (and
// amnesiac), overlapping follower crashes let a second master win a
// quorum inside the first master's live lease — a diskless split
// brain the oracle observes as a stale read. The same schedules are
// clean under the honest protocol (TestModelCheckReplicatedQuick
// covers the grammar; the pinned artifact covers this exact shape).
func TestBreakQuietCaught(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for seed := int64(1); seed <= 400; seed++ {
		sc := splitBrainTemplate(seed, ms)
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Ok() {
			t.Logf("seed %d caught the quiet break: %v", seed, out.Violations[0])
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
	t.Fatal("no schedule caught the quiet break in 400 seeds")
}

// splitBrainTemplate builds the crash choreography that needs the
// quiet period: while replica A holds the master lease, both of its
// peers crash and restart; amnesiac restarts can then promise and
// accept a second master before A's lease expires. Client 0 holds a
// read lease via A; client 1 writes via the usurper; client 0's
// cache hit is then provably stale. The seed jitters every instant so
// a range of interleavings is explored.
func splitBrainTemplate(seed int64, ms func(int) time.Duration) Scenario {
	j := func(n int64) time.Duration { return time.Duration((seed*7919+n*104729)%97) * time.Millisecond / 10 }
	return Scenario{
		Seed:    seed,
		Clients: 2, Files: 1, Servers: 3,
		Break: BreakQuiet,
		Ops: []Op{
			{At: ms(40) + j(1), Client: 0, File: 0, Kind: OpRead},
			// Renewed on the legitimate master right before the
			// choreography: the cached lease runs to roughly 550ms.
			{At: ms(300) + j(2), Client: 0, Kind: OpExtend},
			{At: ms(420) + j(3), Client: 1, File: 0, Kind: OpWrite},
			// Reads inside the poisoned window: after the usurper applies
			// client 1's write, before the cached lease expires.
			{At: ms(480) + j(5), Client: 0, File: 0, Kind: OpRead},
			{At: ms(510) + j(6), Client: 0, File: 0, Kind: OpRead},
		},
		Faults: []Fault{
			// Replica 2 wins the genesis election (highest ballot in the
			// first round), so 0 and 1 are the followers whose amnesiac
			// restarts can hand out a second quorum.
			{Kind: FaultServerCrash, Server: 0, At: ms(320) + j(7), Dur: ms(25) + j(8)/4},
			{Kind: FaultServerCrash, Server: 1, At: ms(330) + j(9), Dur: ms(25) + j(10)/4},
			// Keep the writer away from the true master: if its write
			// ever reaches replica 2, the legitimate grant table asks
			// client 0 for approval and the stale cache is evicted — the
			// usurper is the only server that can apply the write behind
			// client 0's back.
			{Kind: FaultPartition, Client: 1, Server: 2, At: ms(340), Dur: ms(700)},
		},
	}
}

// TestSyncRepliesKeepMergeContract: at five replicas a new master syncs
// from two peers. A file the master and only one of them hold must come
// back from the merge unsettled, since the other peer lacks it: the
// model combines the replies it counted as srvcore.Core.Merge requires,
// listing a path a reply lacks at sequence zero, where plain
// concatenation would settle it.
func TestSyncRepliesKeepMergeContract(t *testing.T) {
	var e proto.Enc
	held := srvcore.ReplFile{Path: filePath(0), Seq: 1, Data: e.EncodeOp(vfs.Op{Kind: vfs.OpWrite, Path: filePath(0), Data: []byte("v1")}).Bytes()}
	srv := &mserver{
		w:    &world{sc: Scenario{Servers: 5}},
		core: srvcore.New(srvcore.Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Second, Shards: checkShards}),
	}
	if applied, err := srv.core.ApplyReplicated(held.Path, held.Seq, held.Data); !applied || err != nil {
		t.Fatalf("master's own copy: applied %v, %v", applied, err)
	}
	settled := false
	srv.syncID = 1
	srv.sync = &round{Round: replica.NewRound(srv.rep, srv.w.sc.Servers, replica.WhileMaster), done: func(err error) { settled = err == nil }}
	srv.handleSyncRep(syncRep{From: 1, ReqID: 1, Files: []srvcore.ReplFile{held}})
	srv.handleSyncRep(syncRep{From: 1, ReqID: 1, Files: []srvcore.ReplFile{held}}) // a retransmission's duplicate
	srv.handleSyncRep(syncRep{From: 2, ReqID: 1})
	if !settled || len(srv.syncReplies) != 2 {
		t.Fatalf("sync ended %v with %d replies, want a quorum of 2", settled, len(srv.syncReplies))
	}
	unsettled := srv.core.Merge(replica.CombineSync(srv.syncReplies))
	if len(unsettled) != 1 || unsettled[0].Path != held.Path || unsettled[0].Seq <= held.Seq {
		t.Fatalf("merge left %v unsettled, want %s under a fresh sequence", unsettled, held.Path)
	}
}

// TestModelCheckFiveReplicasQuick runs the replicated grammar at five
// replicas, where a quorum counts two peers: a quorum that only some
// transmissions reach, and sync replies that disagree with each other,
// first show here.
func TestModelCheckFiveReplicasQuick(t *testing.T) {
	base := baseSeed(t)
	rep, err := Explore(ExploreConfig{
		Gen:      GenConfig{Servers: 5, Profile: ProfileAll},
		Mode:     "random",
		Seeds:    50,
		BaseSeed: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("5-replica schedule %d (seed %d, replay: LEASECHECK_SEED=%d) violated: %v",
			rep.Schedules, rep.Violating.Seed, base, rep.Outcome.Violations)
	}
}
