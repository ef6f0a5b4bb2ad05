// Command leasebench regenerates the paper's evaluation: every figure
// and table of Gray & Cheriton (SOSP 1989), plus the §4 optimization and
// §5 fault-tolerance results, printed as aligned text columns.
//
// Usage:
//
//	leasebench -exp all          # everything (a few minutes)
//	leasebench -exp fig1 -quick  # one experiment, shortened workload
//
// Experiments: fig1, fig2, fig3, table2, headline, installed, baselines,
// scaling, faults, all.
package main

import (
	"flag"
	"fmt"
	"os"

	"leases/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig2|fig3|table2|headline|installed|baselines|scaling|faults|all")
	quick := flag.Bool("quick", false, "shorten simulated workloads")
	flag.Parse()

	w := os.Stdout
	run := func(name string) bool { return *exp == name || *exp == "all" }
	any := false

	if run("fig1") {
		any = true
		fmt.Fprintln(w, "Regenerating Figure 1 (trace-driven simulation included; this sweeps 31 terms)...")
		experiments.RenderSeries(w, "Figure 1: Relative Server Consistency Load vs Lease Term",
			"term(s)", "load relative to zero term", experiments.Figure1(*quick))
	}
	if run("fig2") {
		any = true
		experiments.RenderSeries(w, "Figure 2: Delay added by consistency vs Lease Term (LAN)",
			"term(s)", "added delay (ms)", experiments.Figure2())
	}
	if run("fig3") {
		any = true
		experiments.RenderSeries(w, "Figure 3: Added delay with 100 ms round-trip time",
			"term(s)", "ms / % of round trip", experiments.Figure3())
	}
	if run("table2") {
		any = true
		experiments.RenderTable(w, experiments.Table2(*quick))
	}
	if run("headline") {
		any = true
		experiments.RenderTable(w, experiments.HeadlineTable())
	}
	if run("installed") {
		any = true
		experiments.RenderTable(w, experiments.InstalledFiles(*quick))
	}
	if run("baselines") {
		any = true
		experiments.RenderTable(w, experiments.Baselines(*quick))
	}
	if run("scaling") {
		any = true
		for _, s := range experiments.Scaling() {
			experiments.RenderSeries(w, "Scaling (§3.3): "+s.Name,
				"sweep", s.Name, []experiments.Series{s})
		}
	}
	if run("faults") {
		any = true
		experiments.RenderTable(w, experiments.FaultTolerance())
	}
	if !any {
		fmt.Fprintf(os.Stderr, "leasebench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
