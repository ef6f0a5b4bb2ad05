package check

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// quickSeeds reports the schedule budget for TestModelCheckQuick: 2000
// by default (the CI budget), overridable for nightly runs via
// LEASECHECK_SEEDS.
func quickSeeds(t *testing.T) int {
	if s := os.Getenv("LEASECHECK_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad LEASECHECK_SEEDS=%q", s)
		}
		return n
	}
	return 2000
}

// baseSeed lets CI rotate the explored schedule set per commit while
// keeping the run replayable: the logged value, fed back through
// LEASECHECK_SEED, reproduces the exact walk.
func baseSeed(t *testing.T) int64 {
	if s := os.Getenv("LEASECHECK_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad LEASECHECK_SEED=%q", s)
		}
		return n
	}
	return 1
}

// TestModelCheckQuick is the model checker's standing gate: random
// schedule exploration across the full fault grammar must stay
// violation-free. On failure the shrunk counterexample is saved so it
// can be committed as a regression artifact.
func TestModelCheckQuick(t *testing.T) {
	seeds := quickSeeds(t)
	base := baseSeed(t)
	t.Logf("exploring %d schedules from base seed %d (replay: LEASECHECK_SEED=%d)", seeds, base, base)
	rep, err := Explore(ExploreConfig{
		Gen:      GenConfig{Profile: ProfileAll},
		Mode:     "random",
		Seeds:    seeds,
		BaseSeed: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		dir := os.Getenv("LEASECHECK_ARTIFACT_DIR")
		if dir == "" {
			dir = t.TempDir()
		}
		path := ""
		if rep.Counterexample != nil {
			path, _ = rep.Counterexample.Save(dir)
		}
		t.Fatalf("schedule %d (seed %d) violated: %v\nshrunk counterexample: %s",
			rep.Schedules, rep.Violating.Seed, rep.Outcome.Violations, path)
	}
	t.Logf("%d schedules clean", rep.Schedules)
}

// TestProfilesClean runs each fault grammar on its own, so a failure
// localizes to the fault dimension that caused it.
func TestProfilesClean(t *testing.T) {
	for _, p := range []Profile{ProfileDrift, ProfilePartition, ProfileCrash} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(ExploreConfig{
				Gen:      GenConfig{Profile: p},
				Mode:     "random",
				Seeds:    200,
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

// TestExhaustiveSmoke enumerates every 4-op schedule over 2 clients
// and 1 file (6^4 = 1296 sequences) and requires all of them clean.
func TestExhaustiveSmoke(t *testing.T) {
	rep, err := Explore(ExploreConfig{
		Gen:  GenConfig{Clients: 2, Files: 1, Ops: 4},
		Mode: "exhaustive",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("exhaustive schedule violated: %+v\n%v", rep.Violating, rep.Outcome.Violations)
	}
	if want := ExhaustiveCount(GenConfig{Clients: 2, Files: 1, Ops: 4}); rep.Schedules != want {
		t.Fatalf("visited %d schedules, want %d", rep.Schedules, want)
	}
}

// TestBreakWriteDeferShrinks is the harness's own acceptance test:
// deliberately breaking the §2 write-defer path must be caught by the
// oracle, shrink to a short counterexample, replay deterministically
// from its JSON form, and pass again once the break is removed.
func TestBreakWriteDeferShrinks(t *testing.T) {
	var failing *Scenario
	var foundSeed int64
	for seed := int64(1); seed <= 300; seed++ {
		sc := Generate(seed, GenConfig{Profile: ProfileDrift})
		sc.Break = BreakWriteDefer
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Ok() {
			failing = &sc
			foundSeed = seed
			break
		}
	}
	if failing == nil {
		t.Fatal("no generated schedule caught the write-defer break in 300 seeds")
	}
	ce := Minimize("write-defer-break", *failing, foundSeed)
	t.Logf("shrunk %d steps -> %d steps: %v", failing.Steps(), ce.Steps, ce.Violation)
	if ce.Steps > 12 {
		t.Fatalf("counterexample has %d steps, want <= 12", ce.Steps)
	}

	// Round-trip through the JSON artifact and replay twice.
	dir := t.TempDir()
	path, err := ce.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCounterexample(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayMatches(loaded); err != nil {
		t.Fatal(err)
	}

	// The same schedule under the honest protocol is clean.
	honest := loaded.Scenario.clone()
	honest.Break = ""
	out, err := RunScenario(honest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("honest replay of the counterexample still fails: %v", out.Violations)
	}
}

// TestBreakFenceCaught covers the other safety hook: with the
// invalidation fence disabled, some schedule must cache a stale reply.
func TestBreakFenceCaught(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		sc := Generate(seed, GenConfig{Profile: ProfileAll})
		sc.Break = BreakFence
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Ok() {
			t.Logf("seed %d caught the fence break: %v", seed, out.Violations[0])
			return
		}
	}
	t.Fatal("no schedule caught the fence break in 2000 seeds")
}

// TestGenerateDeterministic pins the generator: equal seeds yield
// deeply equal scenarios.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, GenConfig{Profile: ProfileAll})
	b := Generate(42, GenConfig{Profile: ProfileAll})
	aj, err := a.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("seed 42 generated two different scenarios:\n%s\n---\n%s", aj, bj)
	}
}

// TestScenarioValidate rejects out-of-range references.
func TestScenarioValidate(t *testing.T) {
	sc := Scenario{Clients: 1, Files: 1, Ops: []Op{{Client: 3, Kind: OpRead}}}
	if _, err := RunScenario(sc, Options{}); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	sc = Scenario{Clients: 1, Files: 1, Faults: []Fault{{Kind: "meteor", At: time.Millisecond}}}
	if _, err := RunScenario(sc, Options{}); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
}

// TestPipelinedBurstSchedule hand-builds the schedule shape the
// generator now also emits: one client issuing several operations at
// the same instant, so its requests are concurrently in flight (the
// deployment's futures API on the model substrate). The burst crosses
// another client's leases, forcing approval pushes to interleave with
// the burst's replies, and the oracle must stay clean.
func TestPipelinedBurstSchedule(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 3, Files: 2,
		Ops: []Op{
			// Client 1 takes leases on both files.
			{At: ms(0), Client: 1, File: 0, Kind: OpRead},
			{At: ms(0), Client: 1, File: 1, Kind: OpRead},
			// Client 0 pipelines a mixed burst: two writes (each must
			// collect client 1's approval), a read, and an extend, all in
			// flight together.
			{At: ms(20), Client: 0, File: 0, Kind: OpWrite},
			{At: ms(20), Client: 0, File: 1, Kind: OpWrite},
			{At: ms(20), Client: 0, File: 0, Kind: OpRead},
			{At: ms(20), Client: 0, Kind: OpExtend},
			// Client 1 reads into the middle of the burst: its reply may
			// cross the approval pushes aimed at it.
			{At: ms(21), Client: 1, File: 0, Kind: OpRead},
			// A second burst from a third client against the same files.
			{At: ms(40), Client: 2, File: 0, Kind: OpRead},
			{At: ms(40), Client: 2, File: 1, Kind: OpWrite},
			{At: ms(40), Client: 2, File: 1, Kind: OpRead},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("pipelined burst schedule violated: %v", out.Violations)
	}
	if out.Reads == 0 || out.Writes == 0 {
		t.Fatalf("burst schedule ran no work: %+v", out)
	}
}

// TestRenewalsRideModelRequests: a lease that served a hit is renewed on
// the client's next request past half its term. Client 0 hits file 0
// past half the term and its read of file 1 carries the renewal; client
// 1 then writes file 0, which the renewed lease makes it ask for.
func TestRenewalsRideModelRequests(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 2, Term: ms(100),
		Ops: []Op{
			{At: ms(0), Client: 0, File: 0, Kind: OpRead},
			{At: ms(45), Client: 0, File: 0, Kind: OpRead},
			{At: ms(55), Client: 0, File: 1, Kind: OpRead},
			{At: ms(100), Client: 0, File: 0, Kind: OpRead},
			{At: ms(130), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(200), Client: 0, File: 0, Kind: OpRead},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("violated: %v", out.Violations)
	}
	if out.Renewals != 1 || out.CacheHits != 2 {
		t.Fatalf("%d renewals and %d hits, want the one renewal to keep file 0 cached past its term: %+v", out.Renewals, out.CacheHits, out)
	}
}

// TestRefillsRideModelReplies: a holder that approves a write on a file
// it was reading gets the file back, at the write's version, on the next
// reply the server sends it. Client 0 reads file 0, client 1 writes it,
// client 0's read of file 1 carries file 0 back, and client 0's next
// read of file 0 is a hit on the new value (the oracle judges it).
func TestRefillsRideModelReplies(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sc := Scenario{
		Clients: 2, Files: 2, Term: ms(100),
		Ops: []Op{
			{At: ms(0), Client: 0, File: 0, Kind: OpRead},
			{At: ms(10), Client: 1, File: 0, Kind: OpWrite},
			{At: ms(30), Client: 0, File: 1, Kind: OpRead},
			{At: ms(40), Client: 0, File: 0, Kind: OpRead},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("violated: %v", out.Violations)
	}
	if out.Refills != 1 || out.CacheHits != 1 {
		t.Fatalf("%d refills and %d hits, want file 0 back on the read of file 1 and its re-read a hit: %+v", out.Refills, out.CacheHits, out)
	}
}

// TestBreakRefillEarlyCaught: a refill built when the approval arrives,
// before the write it approved applies, hands the holder the old contents
// under a fresh lease; some schedule must serve them after the write was
// acknowledged. The pinned artifact refill-built-at-approval.json is the
// shrunk schedule.
func TestBreakRefillEarlyCaught(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		sc := Generate(seed, GenConfig{Profile: ProfileAll})
		sc.Break = BreakRefillEarly
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Ok() {
			t.Logf("seed %d caught the early refill: %v", seed, out.Violations[0])
			return
		}
	}
	t.Fatal("no schedule caught the early refill in 2000 seeds")
}
