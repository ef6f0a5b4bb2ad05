// Package experiments regenerates every table and figure of the paper's
// evaluation (§3) plus the optimization and fault-tolerance results of
// §4–§5, using the analytic model (internal/analytic), the trace-driven
// simulator (internal/tracesim) and the baselines (internal/baseline).
//
// Each experiment returns structured data (Series for figures, Table for
// tables) that cmd/leasebench renders as text and the root benchmarks
// report as metrics; EXPERIMENTS.md records paper-versus-measured for
// each.
package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"leases/internal/analytic"
	"leases/internal/baseline"
	"leases/internal/core"
	"leases/internal/netsim"
	"leases/internal/trace"
	"leases/internal/tracesim"
)

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64 // lease term in seconds (or sweep variable)
	Y    []float64
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// RenderSeries writes curves as aligned columns, one row per X.
func RenderSeries(w io.Writer, title, xlabel, ylabel string, series []Series) {
	fmt.Fprintf(w, "# %s\n#   x: %s, y: %s\n", title, xlabel, ylabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xlabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)
	if len(series) > 0 {
		for i := range series[0].X {
			fmt.Fprintf(tw, "%.2f", series[0].X[i])
			for _, s := range series {
				if i < len(s.Y) {
					fmt.Fprintf(tw, "\t%.4f", s.Y[i])
				} else {
					fmt.Fprintf(tw, "\t-")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// RenderTable writes a table as aligned columns.
func RenderTable(w io.Writer, t Table) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.Header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// lanNet is the Table 2 message fabric.
func lanNet() netsim.Params {
	return netsim.Params{Prop: 500 * time.Microsecond, Proc: 50 * time.Microsecond, Seed: 1}
}

// Terms is the x-axis of Figures 1–3: 0 to 30 seconds, as in the paper.
func Terms() []time.Duration {
	var out []time.Duration
	for s := 0; s <= 30; s++ {
		out = append(out, time.Duration(s)*time.Second)
	}
	return out
}

// vTrace builds the synthetic V workload used for the Trace curves.
func vTrace(dur time.Duration) *trace.Trace {
	return trace.V(trace.VConfig{
		Seed: 1989, Duration: dur, Clients: 1,
		RegularFiles: 40, InstalledFiles: 20,
		ReadRate: 0.864, WriteRate: 0.04,
	})
}

// Figure1 regenerates Figure 1: relative server consistency load versus
// lease term — analytic curves for S ∈ {1, 10, 20, 40} plus the
// trace-driven simulation curve. quick shortens the simulated trace.
func Figure1(quick bool) []Series {
	terms := Terms()
	xs := make([]float64, len(terms))
	for i, t := range terms {
		xs[i] = t.Seconds()
	}
	var out []Series
	for _, s := range []float64{40, 20, 10, 1} {
		p := analytic.VParams()
		p.S = s
		ys := make([]float64, len(terms))
		for i, t := range terms {
			ys[i] = p.RelativeLoad(t)
		}
		out = append(out, Series{Name: fmt.Sprintf("S=%g", s), X: xs, Y: ys})
	}

	dur := 2 * time.Hour
	if quick {
		dur = 20 * time.Minute
	}
	tr := vTrace(dur)
	// Batched extension matches the model's multi-file treatment
	// (§3.1): one request covers every lease the cache holds, so R and W
	// correspond to the aggregate rates.
	zero := tracesim.Run(tracesim.Config{Trace: tr, Term: 0, Net: lanNet()})
	ys := make([]float64, len(terms))
	for i, t := range terms {
		res := tracesim.Run(tracesim.Config{Trace: tr, Term: t, Net: lanNet(), BatchExtension: true})
		ys[i] = res.ConsistencyLoad / zero.ConsistencyLoad
	}
	out = append(out, Series{Name: "Trace", X: xs, Y: ys})
	return out
}

// Figure2 regenerates Figure 2: average delay added to each operation by
// consistency versus lease term, on the LAN parameters, for S ∈ {1..40}
// (the curves are nearly indistinguishable, as the paper notes).
func Figure2() []Series {
	terms := Terms()
	xs := make([]float64, len(terms))
	for i, t := range terms {
		xs[i] = t.Seconds()
	}
	var out []Series
	for _, s := range []float64{1, 10, 20, 40} {
		p := analytic.VParams()
		p.S = s
		ys := make([]float64, len(terms))
		for i, t := range terms {
			ys[i] = float64(p.AddedDelay(t)) / float64(time.Millisecond)
		}
		out = append(out, Series{Name: fmt.Sprintf("S=%g", s), X: xs, Y: ys})
	}
	return out
}

// Figure3 regenerates Figure 3: added delay with a 100 ms round-trip
// network, reported both in milliseconds and relative to the round trip.
func Figure3() []Series {
	terms := Terms()
	xs := make([]float64, len(terms))
	for i, t := range terms {
		xs[i] = t.Seconds()
	}
	p := analytic.VParams()
	p.MProp = 50 * time.Millisecond
	abs := make([]float64, len(terms))
	rel := make([]float64, len(terms))
	for i, t := range terms {
		abs[i] = float64(p.AddedDelay(t)) / float64(time.Millisecond)
		rel[i] = p.RelativeDelay(t) * 100
	}
	return []Series{
		{Name: "added-delay-ms", X: xs, Y: abs},
		{Name: "degradation-%", X: xs, Y: rel},
	}
}

// Table2 regenerates Table 2: the workload parameters, measured from the
// synthetic V trace alongside the configured values.
func Table2(quick bool) Table {
	dur := 4 * time.Hour
	if quick {
		dur = 30 * time.Minute
	}
	tr := vTrace(dur)
	s := tr.Measure()
	p := analytic.VParams()
	row := func(sym, desc, val string) []string { return []string{sym, desc, val} }
	return Table{
		Title:  "Table 2: Parameters for file caching in V (measured from synthetic trace)",
		Header: []string{"parameter", "description", "value"},
		Rows: [][]string{
			row("N", "number of clients", fmt.Sprintf("%d", tr.Clients)),
			row("R", "rate of reads (target 0.864/s)", fmt.Sprintf("%.3f/s", s.ReadRate)),
			row("W", "rate of writes (target 0.040/s)", fmt.Sprintf("%.3f/s", s.WriteRate)),
			row("R/W", "read/write ratio", fmt.Sprintf("%.1f", s.ReadWriteRatio)),
			row("inst", "share of reads to installed files", fmt.Sprintf("%.2f", float64(s.InstalledReads)/float64(max(1, s.Reads)))),
			row("m_prop", "propagation delay", p.MProp.String()),
			row("m_proc", "message processing time", p.MProc.String()),
			row("eps", "clock uncertainty allowance", p.Eps.String()),
			row("burst", "read burstiness index (Poisson=1)", fmt.Sprintf("%.1f", tr.BurstinessIndex())),
		},
	}
}

// HeadlineRow is one paper-vs-measured comparison.
type HeadlineRow struct {
	Name     string
	Paper    float64
	Measured float64
}

// Headlines computes the §3.2/§3.3 headline numbers from the analytic
// model with the reconstructed Table 2 parameters.
func Headlines() []HeadlineRow {
	p := analytic.VParams()
	p10 := p
	p10.S = 10
	wan := p
	wan.MProp = 50 * time.Millisecond
	return []HeadlineRow{
		{"S=1 relative consistency load at 10s term", 0.10, p.RelativeLoad(10 * time.Second)},
		{"S=1 total traffic reduction at 10s term", 0.27, p.TotalReduction(10*time.Second, analytic.VConsistencyShare)},
		{"S=1 total traffic over infinite term", 0.045, p.OverInfinite(10*time.Second, analytic.VConsistencyShare)},
		{"S=10 total traffic reduction at 10s term", 0.20, p10.TotalReduction(10*time.Second, analytic.VConsistencyShare)},
		{"S=10 total traffic over infinite term", 0.041, p10.OverInfinite(10*time.Second, analytic.VConsistencyShare)},
		{"100ms-RTT response degradation, 10s term", 0.101, wan.RelativeDelay(10 * time.Second)},
		{"100ms-RTT response degradation, 30s term", 0.036, wan.RelativeDelay(30 * time.Second)},
	}
}

// HeadlineTable renders Headlines as a Table.
func HeadlineTable() Table {
	t := Table{
		Title:  "Headline results (§3.2, §3.3): paper vs model with reconstructed parameters",
		Header: []string{"quantity", "paper", "measured", "rel.err"},
	}
	for _, h := range Headlines() {
		relErr := math.Abs(h.Measured-h.Paper) / h.Paper
		t.Rows = append(t.Rows, []string{
			h.Name,
			fmt.Sprintf("%.3f", h.Paper),
			fmt.Sprintf("%.3f", h.Measured),
			fmt.Sprintf("%.1f%%", relErr*100),
		})
	}
	return t
}

// InstalledFiles runs the §4 installed-files experiment: the V workload
// with many clients sharing the installed set, with and without the
// multicast-extension optimization.
func InstalledFiles(quick bool) Table {
	dur := time.Hour
	clients := 8
	if quick {
		dur = 15 * time.Minute
		clients = 4
	}
	tr := trace.V(trace.VConfig{
		Seed: 7, Duration: dur, Clients: clients,
		RegularFiles: 40, InstalledFiles: 20,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	const term = 10 * time.Second
	plain := tracesim.Run(tracesim.Config{Trace: tr, Term: term, Net: lanNet()})
	opt := tracesim.Run(tracesim.Config{
		Trace: tr, Term: term, Net: lanNet(),
		Installed: &tracesim.InstalledConfig{Term: 30 * time.Second, Period: 20 * time.Second},
	})
	f := func(r *tracesim.Result) []string {
		return []string{
			fmt.Sprintf("%d", r.ServerConsistencyMsgs),
			fmt.Sprintf("%.3f/s", r.ConsistencyLoad),
			fmt.Sprintf("%d", r.CacheHits),
			fmt.Sprintf("%d", r.MaxLeaseRecords),
			fmt.Sprintf("%d", r.StaleReads),
		}
	}
	return Table{
		Title:  "Installed files (§4): per-client leases vs multicast extension",
		Header: []string{"variant", "consistency msgs", "load", "cache hits", "max lease records", "stale"},
		Rows: [][]string{
			append([]string{"per-client leases"}, f(plain)...),
			append([]string{"multicast extension"}, f(opt)...),
		},
	}
}

// Baselines compares the consistency regimes of §6 on a shared workload:
// leases at several terms, check-on-use, and TTL polling.
func Baselines(quick bool) Table {
	dur := time.Hour
	if quick {
		dur = 15 * time.Minute
	}
	tr := trace.Shared(trace.SharedConfig{
		Seed: 11, Duration: dur, Clients: 8, Files: 4,
		ReadRate: 0.864, WriteRate: 0.02,
	})
	t := Table{
		Title: "Baselines (§6): consistency load, hit rate, staleness",
		Header: []string{
			"regime", "consistency msgs", "hit rate", "stale reads", "max staleness",
		},
	}
	addLease := func(name string, term time.Duration) {
		r := tracesim.Run(tracesim.Config{Trace: tr, Term: term, Net: lanNet()})
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", r.ServerConsistencyMsgs),
			fmt.Sprintf("%.2f", float64(r.CacheHits)/float64(max64(1, r.Reads))),
			fmt.Sprintf("%d", r.StaleReads),
			"0s (guaranteed)",
		})
	}
	addLease("lease term=0 (Sprite/RFS/AFS-proto)", 0)
	addLease("lease term=10s", 10*time.Second)
	addLease("lease term=inf (AFS callbacks)", core.Infinite)
	for _, ttl := range []time.Duration{10 * time.Second, 10 * time.Minute} {
		r := baseline.Run(baseline.Config{Trace: tr, Kind: baseline.PollingHints, TTL: ttl, Net: lanNet()})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("TTL polling %v (no leases)", ttl),
			fmt.Sprintf("%d", r.ServerConsistencyMsgs),
			fmt.Sprintf("%.2f", float64(r.CacheHits)/float64(max64(1, r.Reads))),
			fmt.Sprintf("%d", r.StaleReads),
			r.MaxStaleness.Truncate(time.Millisecond).String(),
		})
	}
	return t
}

// Scaling regenerates the §3.3 argument: how the optimal term region
// shifts with processor speed (read rate) and network delay (RTT).
func Scaling() []Series {
	// Sweep read rate at fixed 10s term: relative load falls as R grows
	// (faster processors sharpen the knee).
	rates := []float64{0.25, 0.5, 0.864, 2, 4, 8, 16}
	var xs, knee []float64
	for _, r := range rates {
		p := analytic.VParams()
		p.R = r
		xs = append(xs, r)
		knee = append(knee, p.RelativeLoad(10*time.Second))
	}
	// Sweep RTT at fixed 10s term: the absolute delay consistency adds
	// to each operation grows with network latency (the relative figure
	// is nearly scale-free, which is why §3.3 argues WANs raise the
	// stakes: the same fraction of a much larger round trip).
	rtts := []float64{1, 10, 50, 100, 200, 500} // ms
	var xr, added []float64
	for _, ms := range rtts {
		p := analytic.VParams()
		p.MProp = time.Duration(ms/2*float64(time.Millisecond)) - 2*p.MProc
		if p.MProp < 0 {
			p.MProp = 0
		}
		xr = append(xr, ms)
		added = append(added, float64(p.AddedDelay(10*time.Second))/float64(time.Millisecond))
	}
	return []Series{
		{Name: "rel-load@10s vs R(/s)", X: xs, Y: knee},
		{Name: "added-delay-ms@10s vs RTT(ms)", X: xr, Y: added},
	}
}

// FaultTolerance runs the §5 experiments: bounded write delay under
// client crash, server recovery, and the clock-failure matrix.
func FaultTolerance() Table {
	const term = 10 * time.Second
	mk := func(faults []tracesim.Fault, clientRates []float64, serverRate float64) *tracesim.Result {
		events := []trace.Event{
			{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
			{At: 3 * time.Second, Client: 1, File: 0, Op: trace.OpWrite},
		}
		for at := 3500 * time.Millisecond; at < 14*time.Second; at += 500 * time.Millisecond {
			events = append(events, trace.Event{At: at, Client: 0, File: 0, Op: trace.OpRead})
		}
		tr := &trace.Trace{Duration: 40 * time.Second, Clients: 2, Files: 1, Events: events}
		return tracesim.Run(tracesim.Config{
			Trace: tr, Term: term, Net: lanNet(),
			Faults:          faults,
			ClientClockRate: clientRates,
			ServerClockRate: serverRate,
		})
	}
	t := Table{
		Title:  "Fault tolerance (§5): write delay bounded by term; clock-failure matrix",
		Header: []string{"scenario", "max write delay", "stale reads", "consistent"},
	}
	add := func(name string, r *tracesim.Result) {
		t.Rows = append(t.Rows, []string{
			name,
			r.WriteDelay.Max.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%d", r.StaleReads),
			map[bool]string{true: "yes", false: "NO"}[r.StaleReads == 0],
		})
	}
	add("no faults", mk(nil, nil, 0))
	add("holder crashes (write waits ≤ term)",
		mk([]tracesim.Fault{{Kind: tracesim.ClientCrash, At: 2 * time.Second, Client: 0}}, nil, 0))
	add("holder partitioned",
		mk([]tracesim.Fault{{Kind: tracesim.PartitionClient, At: 2 * time.Second, Client: 0}}, nil, 0))
	add("server crash + restart (recovery window)",
		mk([]tracesim.Fault{
			{Kind: tracesim.ServerCrash, At: 2 * time.Second},
			{Kind: tracesim.ServerRestart, At: 2500 * time.Millisecond},
		}, nil, 0))
	add("fast client clock (benign: extra traffic)", mk(nil, []float64{2.0, 1.0}, 0))
	add("slow server clock (benign)", mk(nil, nil, 0.5))
	add("SLOW client clock + partition (unsafe)",
		mk([]tracesim.Fault{{Kind: tracesim.PartitionClient, At: 2 * time.Second, Client: 0}}, []float64{0.5, 1.0}, 0))
	add("FAST server clock + partition (unsafe)",
		mk([]tracesim.Fault{{Kind: tracesim.PartitionClient, At: 2 * time.Second, Client: 0}}, nil, 1.5))
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
