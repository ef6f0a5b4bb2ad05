package srvcore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// TestRefills is the refill list's rules, which both shells run: an ask
// restamps its entry where it stands or appends one under the cap; a
// take hands over, in the order asked, every entry the shell admits and
// the lease manager grants, drops the reply's own data, entries a term
// old and those the shell refuses, and keeps those the shell cannot fit
// and those whose grant a pending write refuses.
func TestRefills(t *testing.T) {
	const term = 10 * time.Second
	file := func(n int) vfs.Datum { return vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(n)} }
	type ask struct {
		n  int
		at time.Duration
	}
	files := func(from, to int) (out []ask) {
		for _, n := range seq(from, to) {
			out = append(out, ask{n, 0})
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		asks    []ask
		own     []int
		at      time.Duration // the take's instant
		admit   map[int]Admit // RefillGrant unless named
		pending int           // a write on this file still waits for a holder (0: none)
		filled  []int         // in the order handed to fill
		left    int           // entries kept for a later reply
	}{
		{name: "order", asks: []ask{{3, 0}, {1, 0}, {2, 0}}, at: time.Second, filled: []int{3, 1, 2}},
		{name: "restamp keeps the place", asks: []ask{{1, 0}, {2, 0}, {1, time.Second}}, at: 2 * time.Second, filled: []int{1, 2}},
		{name: "restamp keeps the entry young", asks: []ask{{1, 0}, {2, 0}, {1, 9 * time.Second}}, at: 11 * time.Second, filled: []int{1}},
		{name: "a term old", asks: []ask{{1, 0}, {2, time.Nanosecond}}, at: term, filled: []int{2}},
		{name: "cap", asks: files(1, maxRefills+44), at: time.Second, filled: seq(1, maxRefills)},
		{name: "restamp at the cap", asks: append(files(1, maxRefills+1), ask{2, 5 * time.Second}, ask{maxRefills + 1, 5 * time.Second}), at: 11 * time.Second, filled: []int{2}},
		{name: "own data", asks: []ask{{1, 0}, {2, 0}, {3, 0}}, own: []int{2, 3}, at: time.Second, filled: []int{1}},
		{name: "refused grant kept", asks: []ask{{1, 0}, {2, 0}}, pending: 1, at: time.Second, filled: []int{2}, left: 1},
		{name: "shell keeps and drops", asks: []ask{{1, 0}, {2, 0}, {3, 0}}, admit: map[int]Admit{1: RefillKeep, 2: RefillDrop}, at: time.Second, filled: []int{3}, left: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Term: term, Shards: 2, NoStretch: true})
			m := NewMachine(c, 0, nil, nil, "")
			t0 := clock.Epoch
			m.grant("c", file(0), obs.EvGrant, t0) // the longest term granted: term
			if tc.pending != 0 {
				d := file(tc.pending)
				m.grant("h", d, obs.EvGrant, t0)
				p := c.plan("w", d)
				if st := m.Begin(&p, tracing.Context{}, t0).Step; st.Kind != Approval {
					t.Fatalf("the write on %v was handed step %d, want Approval", d, st.Kind)
				} else {
					m.Park(&p, "w", st, t0)
				}
			}
			var r Refills
			for _, a := range tc.asks {
				r.Ask(file(a.n), t0.Add(a.at))
			}
			var own []vfs.Datum
			for _, n := range tc.own {
				own = append(own, file(n))
			}
			var filled []int
			r.Take(m, "c", own, t0.Add(tc.at), func(d vfs.Datum) Admit {
				return tc.admit[int(d.Node)]
			}, func(g proto.GrantWire) {
				if !g.Leased || g.Term != term {
					t.Errorf("%v handed to fill with term %v leased=%v", g.Datum, g.Term, g.Leased)
				}
				filled = append(filled, int(g.Datum.Node))
			})
			if !slices.Equal(filled, tc.filled) || r.Len() != tc.left {
				t.Fatalf("filled %s and kept %d, want %s and %d", brief(filled), r.Len(), brief(tc.filled), tc.left)
			}
		})
	}
}

func seq(from, to int) (out []int) {
	for n := from; n <= to; n++ {
		out = append(out, n)
	}
	return out
}

// brief prints a long list by its ends.
func brief(ns []int) string {
	if len(ns) > 6 {
		return fmt.Sprintf("%v … %v (%d)", ns[:3], ns[len(ns)-3:], len(ns))
	}
	return fmt.Sprint(ns)
}
