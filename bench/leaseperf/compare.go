package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadSpec reads BENCHMARK.json.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one end-to-end metric of one workload: b against a,
// given the metric's direction and bound. worse is the share of a's
// value by which b is worse (negative when b is better).
//
//	"unresolved"  either run's own slices spread wider than the bound:
//	              the pair cannot tell a regression from noise
//	"BREACH"      b is worse than a by more than the bound
//	"ok"          otherwise
func verdict(m specMetric, a, b value) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if m.Better == "higher" {
		worse = -worse
	}
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "BREACH"
	}
	return worse, "ok"
}

// compareFiles prints, for every workload and end-to-end metric the two
// result files share, b's change against a and its verdict, and
// returns the number of breaches. Only untraced results are compared:
// end-to-end metrics are defined with tracing off.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (breaches int, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := loadResults(aPath)
	if err != nil {
		return 0, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return 0, err
	}
	if a.Seconds != b.Seconds {
		return 0, fmt.Errorf("windows differ: %gs in %s, %gs in %s", a.Seconds, aPath, b.Seconds, bPath)
	}
	find := func(f resultsFile, workload string) (result, bool) {
		for _, r := range f.Results {
			if r.Workload == workload && !r.Traced {
				return r, true
			}
		}
		return result{}, false
	}
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	compared := 0
	for _, wl := range spec.Workloads {
		ra, okA := find(a, wl.Name)
		rb, okB := find(b, wl.Name)
		if !okA || !okB {
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-11s a correct=%v, b correct=%v: BREACH\n", wl.Name, ra.Correct, rb.Correct)
			breaches++
			compared++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.E2E[m.Name], rb.E2E[m.Name]
			worse, v := verdict(m, va, vb)
			if v == "BREACH" {
				breaches++
			}
			compared++
			fmt.Fprintf(w, "%-11s %-16s %12.3f %12.3f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100**m.Bound, v)
		}
	}
	if compared == 0 {
		return 0, fmt.Errorf("%s and %s share no untraced workload", aPath, bPath)
	}
	fmt.Fprintf(w, "%d pairs compared, %d breaches\n", compared, breaches)
	return breaches, nil
}
