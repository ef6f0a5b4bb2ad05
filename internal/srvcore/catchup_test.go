package srvcore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// TestReplStateShipsOnlyReplicated is the promotion row of the cost
// table: a catch-up sync from a replica holding N seeded files, k of
// them since overwritten by replication and one more created by it,
// lists exactly those k+1, sorted by path, each as the move-in of the
// bytes the replica holds; what it ships does not grow with N.
func TestReplStateShipsOnlyReplicated(t *testing.T) {
	const k = 3
	for _, n := range []int{0, 10, 1000} {
		c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Minute})
		for i := 0; i < n; i++ { // never replicated
			op := vfs.Op{Kind: vfs.OpCreate, Path: fmt.Sprintf("/s%d", i), Owner: "srv", Perm: vfs.DefaultPerm, Data: make([]byte, 1024)}
			if _, err := c.cfg.Store.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		want := map[string]string{"/new": "created"}
		for i := 0; i < k && i < n; i++ {
			path := fmt.Sprintf("/s%d", n-1-i)
			want[path] = "w" + path
			if applied, err := c.ApplyReplicated(path, uint64(2+i), shippedWrite(path, want[path])); !applied || err != nil {
				t.Fatal(path, applied, err)
			}
		}
		if _, err := c.ApplyReplicated("/new", 1, shippedWrite("/new", "created")); err != nil {
			t.Fatal(err)
		}
		files := c.ReplState()
		shipped := 0
		for i, f := range files {
			shipped += len(f.Data)
			if i > 0 && files[i-1].Path >= f.Path {
				t.Errorf("%d files: %q listed after %q", n, f.Path, files[i-1].Path)
			}
			d := proto.NewDec(f.Data)
			op := d.DecodeOp()
			if d.Err != nil || op.Kind != vfs.OpCreate || op.Path != f.Path || string(op.Data) != want[f.Path] || f.Seq != c.Seq(f.Path) || f.Seq == 0 {
				t.Errorf("%d files: listed %q at seq %d as %+v (%v), want its move-in of %q at seq %d", n, f.Path, f.Seq, op, d.Err, want[f.Path], c.Seq(f.Path))
			}
		}
		if len(files) != len(want) {
			t.Errorf("%d seeded files: ReplState lists %d files, want %d", n, len(files), len(want))
		}
		if shipped > 64*len(want) {
			t.Errorf("%d seeded files of 1 KiB: ReplState ships %d bytes for %d short files", n, shipped, len(want))
		}
		t.Logf("store of %d seeded + %d replicated files: sync lists %d files, %d bytes", n, len(want), len(files), shipped)
	}
}

// TestMergeIgnoresNeverReplicatedFiles: over random stores and
// sequences on three replicas, Merge over the catch-up replies as they
// are leaves the same store, sequences and unsettled list as Merge over
// the same replies padded with every never-replicated file at sequence
// zero — the form a sync took when it walked the whole store.
func TestMergeIgnoresNeverReplicatedFiles(t *testing.T) {
	const paths = 8
	for s := int64(0); s < 300; s++ {
		// build makes the three replicas of seed s afresh: two masters
		// built from one seed are identical.
		build := func() [3]*Core {
			rng := rand.New(rand.NewSource(s))
			var cs [3]*Core
			for i := range cs {
				cs[i] = New(Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Minute, Master: func(time.Time) bool { return true }})
			}
			for p := 0; p < paths; p++ {
				path := fmt.Sprintf("/f%d", p)
				for _, c := range cs {
					if rng.Intn(4) > 0 {
						op := vfs.Op{Kind: vfs.OpCreate, Path: path, Owner: "bob", Perm: vfs.DefaultPerm, Data: []byte("seeded")}
						if _, err := c.cfg.Store.Apply(op); err != nil {
							t.Fatal(err)
						}
					}
					for w := rng.Intn(3); w > 0; w-- {
						seq := uint64(1 + rng.Intn(4))
						c.ApplyReplicated(path, seq, shippedWrite(path, fmt.Sprint("v", seq, "@", rng.Intn(2))))
					}
				}
			}
			return cs
		}
		cs := build()
		trimmed := gather([][]ReplFile{cs[1].ReplState(), cs[2].ReplState()})
		padded := gather([][]ReplFile{walkState(cs[1], paths), walkState(cs[2], paths)})
		got, want := cs[0], build()[0]
		gotUnsettled, wantUnsettled := got.Merge(trimmed), want.Merge(padded)
		if !reflect.DeepEqual(gotUnsettled, wantUnsettled) {
			t.Fatalf("seed %d: unsettled %v, want %v", s, gotUnsettled, wantUnsettled)
		}
		if g, w := storeFiles(got, paths), storeFiles(want, paths); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: store %v, want %v", s, g, w)
		}
		for p := 0; p < paths; p++ {
			path := fmt.Sprintf("/f%d", p)
			if g, w := got.Seq(path), want.Seq(path); g != w {
				t.Fatalf("seed %d: %s at seq %d, want %d", s, path, g, w)
			}
		}
	}
}

// gather concatenates catch-up replies as replica.Node.SyncFromPeers
// does: with more than one reply, each also lists at sequence zero every
// path another reply holds and it lacks.
func gather(replies [][]ReplFile) []ReplFile {
	paths := map[string]bool{}
	for _, files := range replies {
		for _, f := range files {
			paths[f.Path] = true
		}
	}
	var out []ReplFile
	for _, files := range replies {
		out = append(out, files...)
		held := map[string]bool{}
		for _, f := range files {
			held[f.Path] = true
		}
		for p := range paths {
			if !held[p] && len(replies) > 1 {
				out = append(out, ReplFile{Path: p})
			}
		}
	}
	return out
}

// walkState is c's catch-up reply padded with every file of its store
// that replication never wrote, at sequence zero.
func walkState(c *Core, paths int) []ReplFile {
	out := c.ReplState()
	for path := range storeFiles(c, paths) {
		if c.Seq(path) == 0 {
			data, _ := c.moveIn(path)
			out = append(out, ReplFile{Path: path, Data: data})
		}
	}
	return out
}

// storeFiles is every file /f0 to /f<paths-1> of c's store: its
// contents, owner and permissions.
func storeFiles(c *Core, paths int) map[string]string {
	out := map[string]string{}
	for p := 0; p < paths; p++ {
		path := fmt.Sprintf("/f%d", p)
		if a, err := c.cfg.Store.Lookup(path); err == nil {
			data, _, _ := c.cfg.Store.ReadFile(a.ID)
			out[path] = fmt.Sprintf("%q %s %v", data, a.Owner, a.Perm)
		}
	}
	return out
}
