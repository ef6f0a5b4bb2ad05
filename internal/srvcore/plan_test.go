package srvcore

import (
	"errors"
	"slices"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// TestPlanFromOp pins the mutation rule row by row: the data each op kind
// clears, in clearance order; whether it ships, on a standalone server
// and on a serving master (its first step: Apply, or a Ship of the op by
// path); and its refusals.
func TestPlanFromOp(t *testing.T) {
	type world struct {
		c       *Core
		d, e, f vfs.NodeID
	}
	build := func(replicated bool) world {
		store := vfs.New(clock.NewSim(), "srv")
		d, _ := store.Mkdir("/d", "alice", vfs.DefaultPerm|vfs.WorldWrite)
		e, _ := store.Mkdir("/e", "alice", vfs.DefaultPerm|vfs.WorldWrite)
		f, err := store.Create("/d/f", "alice", vfs.DefaultPerm) // owner-only writes
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Store: store, Term: time.Minute, Shards: 2}
		if replicated {
			cfg.Master = func(time.Time) bool { return true }
		}
		c := New(cfg)
		c.Promote(0, clock.Epoch)
		return world{c, d.ID, e.ID, f.ID}
	}
	file := func(n vfs.NodeID) vfs.Datum { return vfs.Datum{Kind: vfs.FileData, Node: n} }
	dir := func(n vfs.NodeID) vfs.Datum { return vfs.Datum{Kind: vfs.DirBinding, Node: n} }
	for _, tc := range []struct {
		name   string
		writer string
		op     func(w world) vfs.Op
		data   func(w world) []vfs.Datum // nil: refused with err
		ships  bool                      // on a serving master
		err    error
	}{
		{name: "write", writer: "alice",
			op:   func(w world) vfs.Op { return vfs.Op{Kind: vfs.OpWrite, Node: w.f, Data: []byte("x")} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{file(w.f)} }, ships: true},
		{name: "create", writer: "bob",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpCreate, Path: "/d/g", Owner: "bob"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.d)} }},
		{name: "mkdir", writer: "bob",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpMkdir, Path: "/e/g", Owner: "bob"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.e)} }},
		{name: "move-in", writer: "peer",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpCreate, Path: "/d/g", Owner: "bob", Data: []byte{}} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.d)} }, ships: true},
		{name: "remove", writer: "alice",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/d/f"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{file(w.f), dir(w.d)} }},
		{name: "move source", writer: "alice",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/d/f", To: "/x/f"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{file(w.f), dir(w.d)} }},
		{name: "rename in place", writer: "alice",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRename, Path: "/d/f", To: "/d/g"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.d)} }},
		{name: "rename across", writer: "alice",
			op:   func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRename, Path: "/d/f", To: "/e/f"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.d), dir(w.e)} }},
		{name: "setperm", writer: "alice",
			op:   func(w world) vfs.Op { return vfs.Op{Kind: vfs.OpSetPerm, Node: w.f, Owner: "bob"} },
			data: func(w world) []vfs.Datum { return []vfs.Datum{dir(w.d)} }},

		{name: "create, missing parent", writer: "bob", err: vfs.ErrNotExist,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpCreate, Path: "/nope/g"} }},
		{name: "rename, missing new parent", writer: "alice", err: vfs.ErrNotExist,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRename, Path: "/d/f", To: "/nope/f"} }},
		{name: "write, missing file", writer: "alice", err: vfs.ErrNotExist,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpWrite, Node: 99} }},
		{name: "remove, missing file", writer: "alice", err: vfs.ErrNotExist,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/d/nope"} }},
		{name: "rename, missing file", writer: "alice", err: vfs.ErrNotExist,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRename, Path: "/d/nope", To: "/d/g"} }},
		{name: "write, no access", writer: "bob", err: vfs.ErrPerm,
			op: func(w world) vfs.Op { return vfs.Op{Kind: vfs.OpWrite, Node: w.f} }},
		{name: "remove, no access", writer: "bob", err: vfs.ErrPerm,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/d/f"} }},
		{name: "move source, no access", writer: "bob", err: vfs.ErrPerm,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/d/f", To: "/x/f"} }},
		{name: "rename, no access", writer: "bob", err: vfs.ErrPerm,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRename, Path: "/d/f", To: "/d/g"} }},
		{name: "setperm by a non-owner", writer: "bob", err: vfs.ErrPerm,
			op: func(w world) vfs.Op { return vfs.Op{Kind: vfs.OpSetPerm, Node: w.f, Owner: "bob"} }},
		{name: "a directory as a move source", writer: "alice", err: errDirMove,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpRemove, Path: "/e", To: "/x/e"} }},
		{name: "unknown kind", writer: "alice", err: vfs.ErrBadOp,
			op: func(world) vfs.Op { return vfs.Op{Kind: vfs.OpSetPerm + 1, Path: "/d/f"} }},
		{name: "zero kind", writer: "alice", err: vfs.ErrBadOp,
			op: func(world) vfs.Op { return vfs.Op{Path: "/d/f"} }},
	} {
		for _, replicated := range []bool{false, true} {
			w := build(replicated)
			op := tc.op(w)
			p, err := w.c.Plan(core.ClientID(tc.writer), op)
			if tc.data == nil {
				if !errors.Is(err, tc.err) {
					t.Errorf("%s (replicated %v): %v, want %v", tc.name, replicated, err, tc.err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s (replicated %v): refused: %v", tc.name, replicated, err)
				continue
			}
			if want := tc.data(w); !slices.Equal(p.Data(), want) {
				t.Errorf("%s: clears %v, want %v", tc.name, p.Data(), want)
			}
			// The planned op names the node it changes, for the Apply step.
			if got := p.Op(); op.Kind != vfs.OpCreate && op.Kind != vfs.OpMkdir && got.Node == 0 {
				t.Errorf("%s: planned op names no node: %+v", tc.name, got)
			}
			m := NewMachine(w.c, 0, nil, nil, "")
			st := m.Begin(&p, tracing.Context{}, clock.Epoch).Step
			want := Apply
			if tc.ships && replicated {
				want = Ship
			}
			if st.Kind != want {
				t.Errorf("%s (replicated %v): first step %d, want %d", tc.name, replicated, st.Kind, want)
			}
			if st.Kind == Ship && (st.Path == "" || st.Path != p.Op().Path) {
				t.Errorf("%s: ships by path %q, op's path %q", tc.name, st.Path, p.Op().Path)
			}
		}
	}
}
