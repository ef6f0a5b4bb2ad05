package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"leases/bench/topo"
)

// driverSeconds is how long one run measures when the benchmark driver
// runs it: BENCHMARK.json's run_seconds. The issue's 30 s window is
// scaled by this one factor for every workload (20/30), so that the
// driver's 4 + 22 × 4 runs, each with three set-ups and a warm-up, end
// inside its cap.
const driverSeconds = 20

// printValue prints one metric as
// `workload metric unit value n=<samples>`, a median latency with the
// highest percentile its sample supports, a per-slice metric with its
// relative IQR.
func printValue(w io.Writer, workload, name string, v value) {
	fmt.Fprintf(w, "%-11s %-32s %-6s %14.4f n=%d", workload, name, v.Unit, v.Value, v.N)
	if v.TailP > 0 {
		fmt.Fprintf(w, " p%g=%.1f", v.TailP, v.Tail)
	}
	if v.Spread > 0 {
		fmt.Fprintf(w, " iqr=%.1f%%", 100*v.Spread)
	}
	fmt.Fprintln(w)
}

func printResult(w io.Writer, r result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "## %s seed=%d window=%gs %s\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, def := range endToEnd {
		printValue(w, r.Workload, def.name, r.E2E[def.name])
	}
	for _, def := range perLayer {
		// An untraced run has no probes and no spans; it prints the
		// per-layer metrics it does have.
		if v := r.Layer[def.name]; r.Traced || v.Value != 0 {
			printValue(w, r.Workload, def.name, v)
		}
	}
	fmt.Fprintf(w, "%-11s %-32s %-6s %14.4f n=%d (stale reads %d, corrupt reads %d)\n",
		r.Workload, "fail_ratio", "ratio", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted, r.Stale, r.Corrupt)
	for _, why := range r.Void {
		fmt.Fprintf(w, "%-11s VOID: %s\n", r.Workload, why)
	}
	for _, why := range r.Warn {
		fmt.Fprintf(w, "%-11s WARN: %s\n", r.Workload, why)
	}
	if r.FirstErr != "" {
		fmt.Fprintf(w, "%-11s first error: %s\n", r.Workload, r.FirstErr)
	}
}

// printLayerTables prints, for each measured phase of a traced run,
// the probes priced at the phase's calls per op, their sum, the residue
// and the phase's CPU per op they add up to; then the span self times.
func printLayerTables(w io.Writer, tr *runData) {
	for i := range tr.phases {
		d := tr.phases[i].whole()
		rows, sum, residue := layerTable(d, tr.probes, tr.pl.kind == topo.Shard2)
		fmt.Fprintf(w, "### layer table: %s phase %s — %d ops, %.2f µs CPU per op\n",
			tr.w.name, tr.phases[i].name, int(d.ops), cpuPerOp(d))
		fmt.Fprintf(w, "    %-24s %10s %12s %10s\n", "probe", "ns/call", "calls/op", "µs/op")
		for _, r := range rows {
			if r.costUs == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-24s %10.0f %12.3f %10.3f\n", r.name, r.ns, r.perOp, r.costUs)
		}
		fmt.Fprintf(w, "    %-24s %10s %12s %10.3f\n", "sum of probes", "", "", sum)
		fmt.Fprintf(w, "    %-24s %10s %12s %10.3f\n", "server.residue_us", "", "", residue)
		fmt.Fprintf(w, "    %-24s %10s %12s %10.3f\n", "= CPU per op", "", "", sum+residue)
	}
	st := spanStats(tr.rows, tr.phases)
	fmt.Fprintf(w, "### spans in the measured phases: %s (one op in %d sampled)\n", tr.w.name, sampleEvery)
	fmt.Fprintf(w, "    %-24s %8s %12s %12s\n", "span", "n", "p50 µs", "self p50 µs")
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Fprintf(w, "    %-24s %8d %12.1f %12.1f\n", name, s.n, s.p50us, s.selfP50us)
	}
}

func sortedKeys(m map[string]spanStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specJSON renders BENCHMARK.json from the catalogue.
func specJSON() []byte {
	s := benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: driverSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		s.EndToEnd = append(s.EndToEnd, specMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // the catalogue is static; it always marshals
	}
	return b
}

// printCatalogue prints the workload and metric tables bench/README.md
// carries.
func printCatalogue(w io.Writer) {
	cell := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	fmt.Fprintln(w, "| workload | why |\n|---|---|")
	for _, wl := range workloads {
		fmt.Fprintf(w, "| `%s` | %s |\n", wl.name, cell(wl.why))
	}
	fmt.Fprintln(w, "\n| end-to-end metric | unit | better | bound | how |\n|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.0f%% | %s |\n", m.name, m.unit, m.better, 100*m.bound, cell(m.how))
	}
	fmt.Fprintln(w, "\n| per-layer metric | unit | layer | how | should move |\n|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.name, m.unit, m.layer, cell(m.how), cell(m.moves))
	}
}
