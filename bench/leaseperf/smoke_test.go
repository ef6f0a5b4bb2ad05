package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONIsTheCatalogue keeps the file the driver reads and
// the metrics the program emits from drifting apart: BENCHMARK.json is
// `leaseperf -spec`, byte for byte.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(specJSON(), '\n'); !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from `leaseperf -spec`; regenerate it")
	}
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func names(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestEveryWorkloadEmitsExactlyTheCatalogue runs each workload traced,
// with one-second windows and the cold set a fifth the size, and holds
// what it emits against BENCHMARK.json: the same names, finite values,
// every end-to-end metric above zero, and no failed op. (A fifth, not
// less: a scan of fewer files than a connection reads in a lease term
// finds them all still leased, and has no miss to time.)
func TestEveryWorkloadEmitsExactlyTheCatalogue(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		sw := sw
		t.Run(sw.Name, func(t *testing.T) {
			w, ok := findWorkload(sw.Name)
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", sw.Name)
			}
			rd, err := runWorkload(w, params{seed: 1, seconds: 1, warmup: 0.1, sizeDiv: 5, setups: 1, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			res := rd.toResult(nil)
			if res.Failed != 0 || res.Stale != 0 || res.Corrupt != 0 {
				t.Errorf("%d of %d ops failed (%d stale, %d corrupt): %s", res.Failed, res.Attempted, res.Stale, res.Corrupt, res.FirstErr)
			}
			if len(res.Void) > 0 {
				t.Errorf("run is void: %v", res.Void)
			}
			if got, want := names(res.E2E), specNames(spec.EndToEnd); !equal(got, want) {
				t.Errorf("end-to-end metrics emitted %v, BENCHMARK.json lists %v", got, want)
			}
			if got, want := names(res.Layer), specNames(spec.PerLayer); !equal(got, want) {
				t.Errorf("per-layer metrics emitted %v, BENCHMARK.json lists %v", got, want)
			}
			for _, m := range spec.EndToEnd {
				if v := res.E2E[m.Name]; !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s = %v %s, want a positive finite value in %s", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if v := res.Layer[m.Name]; math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s = %v %s, want a finite value in %s", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
		})
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
