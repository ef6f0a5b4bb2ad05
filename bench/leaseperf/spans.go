package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leases/internal/obs/tracing"
)

// spanRow is one span as the trace file holds it, whether the benchmark
// recorded it around a client call or the program emitted it.
type spanRow struct {
	Trace  string    `json:"trace"`
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Node   string    `json:"node,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Note   string    `json:"note,omitempty"`
	SelfNs int64     `json:"self_ns"`
}

// spanLog holds the benchmark's own spans in memory until the run ends:
// for one op in sampleEvery, a root "op" from the instant the op was
// due to its completion, with children "sched.late" (due → issued) and
// "client.call" (issued → completed) around the call into the client.
// A nil log records nothing.
type spanLog struct {
	mu   sync.Mutex
	rows []spanRow
	next atomic.Uint64
}

// opSpan is one sampled op in flight; the zero value is an unsampled
// op and ends without effect.
type opSpan struct {
	log         *spanLog
	kind, node  string
	due, issued time.Time
}

func (l *spanLog) begin(c *conn, kind string, due, issued time.Time) opSpan {
	if l == nil || c.nOps.Add(1)%sampleEvery != 0 {
		return opSpan{}
	}
	return opSpan{log: l, kind: kind, node: fmt.Sprintf("bench:load%d", c.id), due: due, issued: issued}
}

func (s opSpan) end(done time.Time) {
	if s.log == nil {
		return
	}
	base := s.log.next.Add(3)
	id := func(n uint64) string { return fmt.Sprintf("%016x", n) }
	trace, root := id(base), id(base)
	call := done.Sub(s.issued)
	rows := []spanRow{
		{Trace: trace, ID: root, Name: "op", Node: s.node, Start: s.due, End: done, Note: s.kind,
			SelfNs: int64(done.Sub(s.due) - s.issued.Sub(s.due) - call)},
		{Trace: trace, ID: id(base + 1), Parent: root, Name: "sched.late", Node: s.node,
			Start: s.due, End: s.issued, SelfNs: int64(s.issued.Sub(s.due))},
		{Trace: trace, ID: id(base + 2), Parent: root, Name: "client.call", Node: s.node,
			Start: s.issued, End: done, SelfNs: int64(call)},
	}
	s.log.mu.Lock()
	s.log.rows = append(s.log.rows, rows...)
	s.log.mu.Unlock()
}

// covered is how much of [start, end) the intervals cover, each clipped
// to it.
func covered(start, end time.Time, iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cursor := start
	for _, x := range iv {
		from, to := x[0], x[1]
		if from.Before(cursor) {
			from = cursor
		}
		if to.After(end) {
			to = end
		}
		if to.After(from) {
			total += to.Sub(from)
			cursor = to
		}
	}
	return total
}

// harvest converts the segments a program tracer completed into rows,
// computing each span's self time: its duration minus the part of it
// its child spans cover.
func harvest(tr *tracing.Tracer) []spanRow {
	var rows []spanRow
	for _, seg := range tr.Recent(0) {
		children := map[tracing.SpanID][][2]time.Time{}
		for _, sp := range seg.Spans {
			if sp.Parent != 0 {
				children[sp.Parent] = append(children[sp.Parent], [2]time.Time{sp.Start, sp.End})
			}
		}
		for _, sp := range seg.Spans {
			if sp.End.IsZero() {
				continue
			}
			row := spanRow{
				Trace: fmt.Sprintf("%016x", uint64(sp.Trace)), ID: fmt.Sprintf("%016x", uint64(sp.ID)),
				Name: sp.Name, Node: sp.Node, Start: sp.Start, End: sp.End, Note: sp.Note,
			}
			if sp.Parent != 0 {
				row.Parent = fmt.Sprintf("%016x", uint64(sp.Parent))
			}
			row.SelfNs = int64(sp.Duration() - covered(sp.Start, sp.End, children[sp.ID]))
			rows = append(rows, row)
		}
	}
	return rows
}

// spanStat is the count of one span name's occurrences in the window
// and the medians of their durations and self times, in µs.
type spanStat struct {
	n         int
	p50us     float64
	selfP50us float64
}

// spanStats reduces, per span name, the rows that lie inside one of the
// measured phases; spans of the warm-ups between them are left out.
func spanStats(rows []spanRow, phases []phaseResult) map[string]spanStat {
	measured := func(r spanRow) bool {
		for i := range phases {
			if !r.Start.Before(phases[i].start.at) && !r.End.After(phases[i].end.at) {
				return true
			}
		}
		return false
	}
	dur, self := map[string][]float64{}, map[string][]float64{}
	for _, r := range rows {
		if !measured(r) {
			continue
		}
		dur[r.Name] = append(dur[r.Name], float64(r.End.Sub(r.Start))/1e3)
		self[r.Name] = append(self[r.Name], float64(r.SelfNs)/1e3)
	}
	out := map[string]spanStat{}
	for name, d := range dur {
		out[name] = spanStat{n: len(d), p50us: median(d), selfP50us: median(self[name])}
	}
	return out
}

// writeTrace writes rows as JSON lines to path.
func writeTrace(path string, rows []spanRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
