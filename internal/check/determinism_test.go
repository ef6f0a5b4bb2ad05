package check

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// runTwice executes the same scenario twice with event sinks attached
// and compares outcomes and full event streams byte for byte.
func runTwice(t *testing.T, sc Scenario) {
	t.Helper()
	var a, b bytes.Buffer
	outA, err := RunScenario(sc, Options{Sink: &a})
	if err != nil {
		t.Fatal(err)
	}
	outB, err := RunScenario(sc, Options{Sink: &b})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", outA) != fmt.Sprintf("%+v", outB) {
		t.Fatalf("outcomes differ:\n%+v\n%+v", outA, outB)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("event streams differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	if outA.Events == 0 {
		t.Fatal("scenario recorded no events; determinism check is vacuous")
	}
}

// TestRunDeterministic is the nondeterminism audit's standing gate: a
// scenario exercising every fault dimension (drift, partitions, loss,
// jitter, crashes, same-instant ties) must produce byte-identical
// observability streams on repeated runs. Map-iteration-order leaks in
// sim, netsim, clock, or the model fail this loudly.
func TestRunDeterministic(t *testing.T) {
	for _, p := range []Profile{ProfileAll, ProfilePartition, ProfileCrash, ProfileDrift} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 25; seed++ {
				runTwice(t, Generate(seed, GenConfig{Profile: p}))
			}
		})
	}
}

// TestRunDeterministicInstalled covers the class half of the client
// driver — broadcasts, snapshot fetches and drop-on-write demotion go
// through the shipped cache core's portfolio.
func TestRunDeterministicInstalled(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		runTwice(t, Generate(seed, GenConfig{Installed: true, Profile: ProfileAll}))
	}
}

// TestRunDeterministicWithBreaks covers the sabotaged paths too, since
// the shrinker replays them and relies on identical verdicts: every
// break, in the kind of world it applies to. BreakFence and
// BreakAllowance live in the client driver (client.go: fence, reset);
// the rest in the server shell (server.go: effects, restart).
func TestRunDeterministicWithBreaks(t *testing.T) {
	plain := GenConfig{Profile: ProfileAll}
	for _, tc := range []struct {
		br  string
		gen GenConfig
	}{
		{BreakWriteDefer, plain}, {BreakFence, plain}, {BreakAllowance, plain},
		{BreakQuiet, GenConfig{Servers: 3, Profile: ProfileAll}},
		{BreakTermFloor, GenConfig{Servers: 3, Profile: ProfileAll}},
		{BreakClassHorizon, GenConfig{Installed: true, Profile: ProfileAll}},
		{BreakRenameOrder, GenConfig{Servers: 3, Groups: 2, Profile: ProfileAll}},
	} {
		for seed := int64(9); seed <= 12; seed++ {
			sc := Generate(seed, tc.gen)
			sc.Break = tc.br
			runTwice(t, sc)
		}
	}
}

// TestServerDriverBreaksBite: the server-side breaks live in the model's
// shell — four answer what the shipped machine handed it without doing
// what it asks (server.go: effects), BreakRefillEarly reads a
// refill at the approval instead of at its grant, and BreakTermFloor
// raises a replica's term floor to the policy term instead of the
// ceiling a stretched renewal reaches (server.go: boot). Each must still
// change the outcome on its pinned counterexample, and the honest run of
// the same schedule must be clean and byte-deterministic.
func TestServerDriverBreaksBite(t *testing.T) {
	for br, name := range map[string]string{
		BreakWriteDefer:   "write-defer-immediate-apply",
		BreakQuiet:        "failover-no-recovery-wait",
		BreakClassHorizon: "class-horizon-stale-covered-read",
		BreakRenameOrder:  "rename-commit-before-source-clearance",
		BreakRefillEarly:  "refill-built-at-approval",
		BreakTermFloor:    "failover-window-under-stretched-lease",
	} {
		ce, err := LoadCounterexample("testdata/counterexamples/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if ce.Scenario.Break != br {
			t.Fatalf("%s pins break %q, want %q", name, ce.Scenario.Break, br)
		}
		broken, err := RunScenario(ce.Scenario, Options{})
		if err != nil {
			t.Fatal(err)
		}
		honest := ce.Scenario.clone()
		honest.Break = ""
		clean, err := RunScenario(honest, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if broken.Ok() || !clean.Ok() {
			t.Errorf("%s: with the break ok=%v, honest ok=%v; want a violation against a clean run", br, broken.Ok(), clean.Ok())
		}
		runTwice(t, honest)
		runTwice(t, ce.Scenario)
	}
}

// TestDriverBreaksBite pins that the two breaks expressed in the client
// driver still change what the shipped cache core does — that neither
// became a silent no-op when the model's own cache was deleted.
func TestDriverBreaksBite(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	run := func(sc Scenario, br string) Outcome {
		t.Helper()
		sc.Break = br
		out, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return *out
	}

	// ε: a second read inside the last ε of the term. The honest client
	// has stopped trusting its copy and fetches; with ε = 0 it hits.
	eps := Scenario{
		Clients: 1, Files: 1, Term: ms(100), Allowance: ms(5),
		Ops: []Op{{At: 0, Kind: OpRead}, {At: ms(98), Kind: OpRead}},
	}
	if honest, broken := run(eps, ""), run(eps, BreakAllowance); honest.CacheHits != 0 || broken.CacheHits != 1 {
		t.Fatalf("cache hits inside the allowance: honest %d (want 0), BreakAllowance %d (want 1)", honest.CacheHits, broken.CacheHits)
	}

	// Fence: the pinned grant/approval reorder. The honest client
	// refuses to file the grant that crossed the push and its last read
	// fetches; presenting the current epoch files it, and the read hits
	// the stale copy.
	ce, err := LoadCounterexample("testdata/counterexamples/grant-approval-reorder.json")
	if err != nil {
		t.Fatal(err)
	}
	honest, broken := run(ce.Scenario, ""), run(ce.Scenario, BreakFence)
	if !honest.Ok() || broken.Ok() || broken.CacheHits != honest.CacheHits+1 {
		t.Fatalf("fence: honest ok=%v hits=%d, BreakFence ok=%v hits=%d; want clean vs one stale hit more",
			honest.Ok(), honest.CacheHits, broken.Ok(), broken.CacheHits)
	}
}

// TestWriteApplyRecordedOnce: the write-apply event is the machine's, as
// on the TCP server, so the model's event stream holds one per write it
// applies.
func TestWriteApplyRecordedOnce(t *testing.T) {
	events, applied := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		var sink bytes.Buffer
		out, err := RunScenario(Generate(seed, GenConfig{Profile: ProfileAll}), Options{Sink: &sink})
		if err != nil {
			t.Fatal(err)
		}
		events += bytes.Count(sink.Bytes(), []byte(`"type":"write-apply"`))
		applied += out.WritesApplied
	}
	if applied == 0 || events != applied {
		t.Fatalf("%d write-apply events for %d writes applied", events, applied)
	}
	t.Logf("%d write-apply events for %d writes applied", events, applied)
}
