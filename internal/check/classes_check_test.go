package check

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestInstalledBroadcastModel pins the §4.3 economy on the model
// substrate: with the installed class on, a client's second read of a
// file long past the per-file term is still a cache hit, because the
// periodic broadcast extensions kept its coverage alive; with the
// class off, the identical schedule misses.
func TestInstalledBroadcastModel(t *testing.T) {
	ops := []Op{
		{At: 0, Client: 0, File: 0, Kind: OpRead},
		// 2.5 terms later: the per-file lease (250ms) is long gone.
		{At: 625 * time.Millisecond, Client: 0, File: 0, Kind: OpRead},
	}
	withClass := Scenario{Clients: 1, Files: 1, Installed: true, Ops: ops}
	out, err := RunScenario(withClass, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("installed scenario violated: %v", out.Violations)
	}
	if out.CacheHits != 1 {
		t.Fatalf("installed world: %d cache hits, want 1 (broadcast coverage should span the gap)", out.CacheHits)
	}
	without := Scenario{Clients: 1, Files: 1, Ops: ops}
	out, err = RunScenario(without, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != 0 {
		t.Fatalf("plain world: %d cache hits, want 0 (the lease must have expired)", out.CacheHits)
	}
}

// TestDropOnWriteDemotionModel runs the §4.3 write path end to end: a
// write to a broadcast-covered file demotes it, waits out the coverage
// horizon, applies, and every subsequent read — judged by the oracle —
// sees the new value. The reader's pre-write reads hit from class
// coverage alone.
func TestDropOnWriteDemotionModel(t *testing.T) {
	sc := Scenario{
		Clients: 2, Files: 2, Installed: true,
		Ops: []Op{
			{At: 0, Client: 0, File: 0, Kind: OpRead},
			// Covered rereads past the per-file term.
			{At: 400 * time.Millisecond, Client: 0, File: 0, Kind: OpRead},
			// The write demotes f0 and waits out the horizon (~500ms).
			{At: 500 * time.Millisecond, Client: 1, File: 0, Kind: OpWrite},
			// Well past the horizon: the oracle requires the new value.
			{At: 2 * time.Second, Client: 0, File: 0, Kind: OpRead},
		},
	}
	out, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("drop-on-write scenario violated: %v", out.Violations)
	}
	if out.WritesAcked != 1 {
		t.Fatalf("write never acked: %+v", out)
	}
	if out.CacheHits == 0 {
		t.Fatal("the covered reread should have been a cache hit")
	}
}

// TestFailoverCarriesInstalledClass: the master ships the class image a
// read changed to its peers, as the TCP server does, so the master
// elected after it crashes holds the member it promoted without a read of
// its own: its snapshot is not empty, and it broadcasts the class.
func TestFailoverCarriesInstalledClass(t *testing.T) {
	sc := Scenario{
		Clients: 1, Files: 1, Servers: 3, Installed: true,
		Ops:    []Op{{At: 30 * time.Millisecond, Client: 0, File: 0, Kind: OpRead}},
		Faults: []Fault{{Kind: FaultMasterCrash, At: 300 * time.Millisecond, Dur: 1500 * time.Millisecond}},
	}
	var events bytes.Buffer
	out, err := RunScenario(sc, Options{Sink: &events})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Ok() {
		t.Fatalf("failover violated: %v", out.Violations)
	}
	var elected, promoted, broadcasts int
	for lines := bufio.NewScanner(&events); lines.Scan(); {
		var ev struct{ Type string }
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Type == "elected":
			elected++
		case ev.Type == "class-promote":
			promoted++
		case ev.Type == "broadcast-ext" && elected > 1:
			broadcasts++
		}
	}
	if elected < 2 || promoted != 1 || broadcasts == 0 {
		t.Fatalf("%d elections, %d class promotions, %d broadcasts from the successor: want 2+, 1 and some", elected, promoted, broadcasts)
	}
}

// TestInstalledModelClean is the standing gate for the class wire
// paths: random exploration over the full fault grammar — crashes,
// partitions, delayed broadcasts and snapshot replies, drifting clocks
// — with the installed class enabled must stay violation-free, in both
// single-server and replicated worlds.
func TestInstalledModelClean(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gen   GenConfig
		seeds int
	}{
		{"single", GenConfig{Profile: ProfileAll, Installed: true}, 300},
		{"replicated", GenConfig{Profile: ProfileAll, Installed: true, Servers: 3}, 120},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := Explore(ExploreConfig{
				Gen:      tc.gen,
				Mode:     "random",
				Seeds:    tc.seeds,
				BaseSeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violating != nil {
				t.Fatalf("seed %d violated: %v", rep.Violating.Seed, rep.Outcome.Violations)
			}
			t.Logf("%d installed schedules clean", rep.Schedules)
		})
	}
}

// TestBreakClassHorizonShrinks proves the coverage-horizon wait is
// load-bearing: with the wait sabotaged, the oracle must catch a
// client reading a stale broadcast-covered copy after the write was
// acknowledged, the failure must shrink to a small counterexample,
// replay deterministically from JSON, and run clean with the break
// removed.
func TestBreakClassHorizonShrinks(t *testing.T) {
	var failing *Scenario
	var foundSeed int64
	for seed := int64(1); seed <= 300; seed++ {
		sc := Generate(seed, GenConfig{Profile: ProfileDrift, Installed: true})
		sc.Break = BreakClassHorizon
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
		t.Fatal("no generated schedule caught the class-horizon break in 300 seeds")
	}
	ce := Minimize("class-horizon-break", *failing, foundSeed)
	t.Logf("shrunk %d steps -> %d steps: %v", failing.Steps(), ce.Steps, ce.Violation)
	if ce.Steps > 12 {
		t.Fatalf("counterexample has %d steps, want <= 12", ce.Steps)
	}

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

// TestClassBreakNeedsInstalled pins the grammar guard: the
// class-horizon break is meaningless without the class enabled.
func TestClassBreakNeedsInstalled(t *testing.T) {
	sc := Scenario{Clients: 1, Files: 1, Break: BreakClassHorizon}
	if _, err := RunScenario(sc, Options{}); err == nil {
		t.Fatal("class-horizon break without Installed accepted")
	}
}
