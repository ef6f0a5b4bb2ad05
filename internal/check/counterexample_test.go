package check

import (
	"path/filepath"
	"testing"
)

// TestCounterexampleArtifacts is the table-driven regression loader:
// every JSON artifact under testdata/counterexamples/ that carries a
// deliberate break must (a) replay its recorded violation
// deterministically with the break enabled, and (b) run clean once the
// break is removed. Together the two directions make each artifact a
// revert-guard: grant-approval-reorder fails if the invalidation fence
// is removed from the client, write-defer-immediate-apply fails if the
// server stops deferring writes behind live leases.
//
// An artifact without a break is a schedule that once violated under
// the honest protocol — acked-write-lost-asym-failover in the model's
// former hand-written server; promotion-serves-unsettled-merge and
// rename-loses-racing-write in the shipped promotion and cross-shard
// rename, once the model drove them; installed-repromoted-mid-write in
// the installed class, once the grammar drew a short quiet window — and
// must stay clean.
func TestCounterexampleArtifacts(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "counterexamples", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no counterexample artifacts found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			ce, err := LoadCounterexample(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := ce.Scenario.Steps(); got != ce.Steps {
				t.Errorf("artifact declares %d steps, scenario has %d", ce.Steps, got)
			}
			if ce.Steps > 12 {
				t.Errorf("counterexample has %d steps; artifacts should stay minimal (<= 12)", ce.Steps)
			}
			if ce.Scenario.Break != "" {
				if err := ReplayMatches(ce); err != nil {
					t.Fatalf("broken replay: %v", err)
				}
			}
			honest := ce.Scenario.clone()
			honest.Break = ""
			out, err := RunScenario(honest, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Ok() {
				t.Fatalf("honest protocol still violates: %v", out.Violations)
			}
		})
	}
}
