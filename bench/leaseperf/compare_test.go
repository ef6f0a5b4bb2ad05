package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// oneResult is a results file holding one untraced single_sat run with
// the given end-to-end values; every other metric sits at 100.
func oneResult(over map[string]value) resultsFile {
	e2e := map[string]value{}
	for _, m := range endToEnd {
		e2e[m.name] = value{Value: 100, Unit: m.unit, N: 15}
	}
	for k, v := range over {
		e2e[k] = v
	}
	return resultsFile{Seconds: 20, Results: []result{{Workload: "single_sat", Correct: true, E2E: e2e}}}
}

// testSpec writes a BENCHMARK.json whose bounds the tests below know:
// 25% on setup_s, 5% on srv_msgs_per_op, 10% on everything else.
func testSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := benchSpec{Workloads: []specWorkload{{Name: "single_sat"}}}
	for _, m := range endToEnd {
		bound := 0.10
		switch m.name {
		case "setup_s":
			bound = 0.25
		case "srv_msgs_per_op":
			bound = 0.05
		}
		spec.EndToEnd = append(spec.EndToEnd, specMetric{m.name, m.unit, m.better, &bound})
	}
	return writeJSON(t, dir, "BENCHMARK.json", spec)
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, dir)
	base := writeJSON(t, dir, "a.json", oneResult(nil))
	for name, c := range map[string]struct {
		b        map[string]value
		breaches int
		want     string // a line of the report
	}{
		"same":                   {nil, 0, "0 breaches"},
		"throughput 5% down":     {map[string]value{"read_ops_s": {Value: 95}}, 0, "ok"},
		"throughput 15% down":    {map[string]value{"read_ops_s": {Value: 85}}, 1, "BREACH"},
		"throughput up":          {map[string]value{"read_ops_s": {Value: 150}}, 0, "-50.0%"},
		"set-up 30% up":          {map[string]value{"setup_s": {Value: 130}}, 1, "BREACH"},
		"set-up down":            {map[string]value{"setup_s": {Value: 50}}, 0, "0 breaches"},
		"messages 8% up":         {map[string]value{"srv_msgs_per_op": {Value: 108}}, 1, "BREACH"},
		"noisy, so unresolved":   {map[string]value{"read_ops_s": {Value: 70, Spread: 0.3}}, 0, "unresolved"},
		"two metrics regressing": {map[string]value{"read_ops_s": {Value: 50}, "setup_s": {Value: 200}}, 2, "2 breaches"},
	} {
		var out bytes.Buffer
		b := writeJSON(t, dir, "b.json", oneResult(c.b))
		breaches, err := compareFiles(&out, spec, base, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if breaches != c.breaches || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: %d breaches, want %d and a line with %q:\n%s", name, breaches, c.breaches, c.want, out.String())
		}
	}
}

func TestCompareRefusesWhatItCannotCompare(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, dir)
	a := writeJSON(t, dir, "a.json", oneResult(nil))
	other := oneResult(nil)
	other.Seconds = 30
	if _, err := compareFiles(new(bytes.Buffer), spec, a, writeJSON(t, dir, "b.json", other)); err == nil {
		t.Error("compared runs with different windows")
	}
	wrong := oneResult(nil)
	wrong.Results[0].Correct = false
	breaches, err := compareFiles(new(bytes.Buffer), spec, a, writeJSON(t, dir, "c.json", wrong))
	if err != nil || breaches != 1 {
		t.Errorf("an incorrect run gave %d breaches (err %v), want 1", breaches, err)
	}
	traced := oneResult(nil)
	traced.Results[0].Traced = true
	if _, err := compareFiles(new(bytes.Buffer), spec, a, writeJSON(t, dir, "d.json", traced)); err == nil {
		t.Error("compared an untraced run with a traced one")
	}
}
