package client_test

import (
	"errors"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// Whole-path leasing tests: one server contact resolves a path and
// leases every directory on it, so a warm open is zero frames at any
// depth and a miss is one. Server and clients share a simulated clock,
// so "the term lapses" is an Advance, not a sleep.

const resolveTerm = 10 * time.Second

func startSimServer(t *testing.T) (*server.Server, string, *clock.Sim) {
	t.Helper()
	clk := clock.NewSim()
	srv, addr := startServer(t, server.Config{Term: resolveTerm, Clock: clk})
	return srv, addr, clk
}

func dialSim(t *testing.T, addr, id string, clk clock.Clock) *client.Cache {
	t.Helper()
	c, err := client.Dial(addr, client.Config{ID: id, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// seedPath creates path's missing directories, then the file itself.
func seedPath(t *testing.T, srv *server.Server, path, content string) {
	t.Helper()
	for i := 1; i < len(path); i++ {
		if path[i] != '/' {
			continue
		}
		if _, err := srv.Store().Lookup(path[:i]); err == nil {
			continue
		}
		if _, err := srv.Store().Mkdir(path[:i], "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
			t.Fatal(err)
		}
	}
	seedFile(t, srv, path, content)
}

// sent is the request frames a cache has put on the wire, by type.
type sent struct{ lookups, reads, writes uint64 }

func sentBy(c *client.Cache) sent {
	ws := c.WireStats()
	return sent{ws.Frames(proto.TLookup, "out"), ws.Frames(proto.TRead, "out"), ws.Frames(proto.TWrite, "out")}
}

func (s sent) minus(o sent) sent {
	return sent{s.lookups - o.lookups, s.reads - o.reads, s.writes - o.writes}
}

// step runs op and fails unless it put exactly want on the wire and
// resolved wantHits names locally.
func step(t *testing.T, c *client.Cache, what string, want sent, wantHits int64, op func() error) {
	t.Helper()
	before, hits := sentBy(c), c.Metrics().LookupHits
	if err := op(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := sentBy(c).minus(before); got != want {
		t.Fatalf("%s sent %+v, want %+v", what, got, want)
	}
	if got := c.Metrics().LookupHits - hits; got != wantHits {
		t.Fatalf("%s resolved %d names locally, want %d", what, got, wantHits)
	}
}

func TestResolveByDepth(t *testing.T) {
	for _, dir := range []string{"", "/a", "/a/b", "/a/b/c"} {
		f, g := dir+"/f", dir+"/g"
		t.Run(f, func(t *testing.T) {
			srv, addr, clk := startSimServer(t)
			seedPath(t, srv, f, "v1")
			seedPath(t, srv, g, "w1")
			c := dialSim(t, addr, "c1", clk)
			readN := func(p string, n int) func() error {
				return func() error {
					for i := 0; i < n; i++ {
						if _, err := c.Read(p); err != nil {
							return err
						}
					}
					return nil
				}
			}

			// Miss: the lookup rides the read, whatever the depth.
			step(t, c, "cold read", sent{reads: 1}, 0, readN(f, 1))
			// Hit: the whole path resolves and the copy is leased.
			step(t, c, "warm reads", sent{}, 5, readN(f, 5))
			step(t, c, "warm lookup", sent{}, 1, func() error { _, err := c.Lookup(f); return err })
			// A write needs the name only.
			step(t, c, "warm write", sent{writes: 1}, 1, func() error { return c.Write(f, []byte("v2")) })

			// Renew: a miss beneath warm directories re-leases every
			// ancestor, and carries the renewal of f's lease, which served
			// hits and is past half its term.
			clk.Advance(resolveTerm * 6 / 10)
			step(t, c, "sibling miss", sent{reads: 1}, 0, readN(g, 1))
			clk.Advance(resolveTerm * 6 / 10)
			step(t, c, "renewed read", sent{}, 1, readN(f, 1))
			// The write renews f and the names again; g's lease, which
			// served nothing, is left to lapse.
			step(t, c, "sibling write", sent{writes: 1}, 1, func() error { return c.Write(g, []byte("w2")) })
			clk.Advance(resolveTerm * 6 / 10)
			// g's own lease has lapsed; its name has not.
			step(t, c, "read by node", sent{reads: 1}, 1, readN(g, 1))

			// Lapse: nothing resolves, one round trip revalidates the
			// whole chain at its unchanged versions — g's edge with it.
			// f and the names renewed live, uncontended leases, which
			// run core.ReuseFactor terms.
			clk.Advance(core.ReuseFactor * resolveTerm)
			step(t, c, "lapsed read", sent{reads: 1}, 0, readN(f, 1))
			step(t, c, "revived sibling write", sent{writes: 1}, 1, func() error { return c.Write(g, []byte("w3")) })
			if got := c.Metrics().ReadHits; got != 6 {
				t.Fatalf("ReadHits = %d, want 6", got)
			}
		})
	}
}

// TestWriteMissLooksUpOnce: a write to an unresolved name pays one
// blocking lookup, which caches the whole chain for the writes after.
func TestWriteMissLooksUpOnce(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/a/b/f", "v1")
	c := dialSim(t, addr, "c1", clk)
	step(t, c, "first write", sent{lookups: 1, writes: 1}, 0, func() error { return c.Write("/a/b/f", []byte("v2")) })
	step(t, c, "second write", sent{writes: 1}, 1, func() error { return c.Write("/a/b/f", []byte("v3")) })
}

// TestRegrantAtNewVersionPurgesDirectory is the regression for binding
// grants keeping a directory's cached entries across a version change:
// c1's lease on "/" lapses, c2 removes /a unhindered, and c1's next
// lookup in "/" re-grants the binding at the new version. /a must not
// resolve from the entries recorded under the old one.
func TestRegrantAtNewVersionPurgesDirectory(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/a", "a1")
	seedPath(t, srv, "/b", "b1")
	c1, c2 := dialSim(t, addr, "c1", clk), dialSim(t, addr, "c2", clk)

	if _, err := c1.Lookup("/a"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * resolveTerm)
	if err := c2.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if got := c1.Metrics().Invalidations; got != 0 {
		t.Fatalf("c1 saw %d invalidations; the lease should have lapsed unasked", got)
	}
	if _, err := c1.Lookup("/b"); err != nil {
		t.Fatal(err)
	}
	before := sentBy(c1)
	if attr, err := c1.Lookup("/a"); !errors.Is(err, client.ErrRemote) {
		t.Fatalf("Lookup(/a) after its removal = %+v, %v; want a remote not-exist", attr, err)
	}
	if got := sentBy(c1).minus(before); got.lookups != 1 {
		t.Fatalf("Lookup(/a) sent %+v, want one TLookup", got)
	}
}

// TestMidPathMutationInvalidatesHolders: renaming or removing a
// directory in the middle of cached paths is a write to its parent's
// binding, so it defers on every holder of that binding, and each
// holder's descendants stop resolving.
func TestMidPathMutationInvalidatesHolders(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/a/b/f", "v1")
	if _, err := srv.Store().Mkdir("/a/e", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		t.Fatal(err)
	}
	holders := []*client.Cache{dialSim(t, addr, "h1", clk), dialSim(t, addr, "h2", clk)}
	mover := dialSim(t, addr, "mover", clk)
	for _, h := range holders {
		if _, err := h.Read("/a/b/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Lookup("/a/e"); err != nil {
			t.Fatal(err)
		}
	}

	deferred := srv.Metrics().WritesDeferred
	if err := mover.Rename("/a/b", "/a/c"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().WritesDeferred - deferred; got == 0 {
		t.Fatal("rename of a leased mid-path directory was not deferred")
	}
	for i, h := range holders {
		if got := h.Metrics().Invalidations; got == 0 {
			t.Fatalf("holder %d was not asked to approve the rename", i)
		}
		step(t, h, "read through the old name", sent{reads: 1}, 0, func() error {
			if _, err := h.Read("/a/b/f"); !errors.Is(err, client.ErrRemote) {
				t.Fatalf("holder %d: Read(/a/b/f) after the rename = %v, want a remote not-exist", i, err)
			}
			return nil
		})
		// The directory itself did not change: its edges revive under
		// the new name at the version they were learned.
		if data, err := h.Read("/a/c/f"); err != nil || string(data) != "v1" {
			t.Fatalf("holder %d: Read(/a/c/f) = %q, %v", i, data, err)
		}
		step(t, h, "warm read through the new name", sent{}, 1, func() error { _, err := h.Read("/a/c/f"); return err })
	}

	deferred = srv.Metrics().WritesDeferred
	if err := mover.Remove("/a/e"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().WritesDeferred - deferred; got == 0 {
		t.Fatal("remove of a leased mid-path directory was not deferred")
	}
	for i, h := range holders {
		if _, err := h.Lookup("/a/e"); !errors.Is(err, client.ErrRemote) {
			t.Fatalf("holder %d: Lookup(/a/e) after its removal = %v, want a remote not-exist", i, err)
		}
	}
}

// TestOwnMutationUnderDroppedAncestor: a client's own rename or remove
// gets no callback, so it must fix its cached edges itself — also when
// an ancestor's edges are gone and the directory no longer resolves by
// path while its own lease and edges live on.
func TestOwnMutationUnderDroppedAncestor(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/a/b/f", "F")
	seedPath(t, srv, "/a/b/g", "G")
	c1, c2 := dialSim(t, addr, "c1", clk), dialSim(t, addr, "c2", clk)
	for _, p := range []string{"/a/b/f", "/a/b/g"} {
		if _, err := c1.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	// c2's create calls c1 back on /a's binding only: c1 drops the a→b
	// edge and keeps /a/b's lease and edges.
	if _, err := c2.Create("/a/z", vfs.DefaultPerm); err != nil {
		t.Fatal(err)
	}
	if got := c1.Metrics().Invalidations; got != 1 {
		t.Fatalf("c1 saw %d invalidations, want 1 (the binding of /a)", got)
	}
	if err := c1.Rename("/a/b/f", "/a/b/h"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Remove("/a/b/g"); err != nil {
		t.Fatal(err)
	}
	// Refile the a→b edge; /a/b itself is the leaf and is not re-granted.
	if _, err := c1.Lookup("/a/b"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/b/f", "/a/b/g"} {
		if attr, err := c1.Lookup(p); !errors.Is(err, client.ErrRemote) {
			t.Errorf("Lookup(%s) after c1 renamed/removed it = %+v, %v; want a remote not-exist", p, attr, err)
		}
		if data, err := c1.Read(p); !errors.Is(err, client.ErrRemote) {
			t.Errorf("Read(%s) after c1 renamed/removed it = %q, %v; want a remote not-exist", p, data, err)
		}
	}
	if data, err := c1.Read("/a/b/h"); err != nil || string(data) != "F" {
		t.Errorf("Read(/a/b/h) = %q, %v", data, err)
	}
}

// TestOwnMutationKeepsWarmDirectory: a client's own create, rename and
// remove patch the directory's cached edges and move its lease record
// to the new binding version, so a later miss under it (a re-grant at
// that version) does not throw the warm edges away.
func TestOwnMutationKeepsWarmDirectory(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/d/f", "F")
	seedPath(t, srv, "/d/g", "G")
	seedPath(t, srv, "/e/x", "X")
	c := dialSim(t, addr, "c1", clk)
	for _, p := range []string{"/d/f", "/e/x"} {
		if _, err := c.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Create("/d/new", vfs.DefaultPerm); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d/new", "/d/new2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d/new2", "/e/new3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/e/new3"); err != nil {
		t.Fatal(err)
	}
	// A miss under each directory re-grants it at its current version.
	step(t, c, "miss under /d", sent{reads: 1}, 0, func() error { _, err := c.Read("/d/g"); return err })
	step(t, c, "warm /d/f", sent{}, 1, func() error { _, err := c.Read("/d/f"); return err })
	step(t, c, "warm /e/x", sent{}, 1, func() error { _, err := c.Read("/e/x"); return err })
	for _, p := range []string{"/d/new", "/d/new2", "/e/new3"} {
		if _, err := c.Lookup(p); !errors.Is(err, client.ErrRemote) {
			t.Errorf("Lookup(%s) = %v, want a remote not-exist", p, err)
		}
	}
}

// TestReadDirAfterPartialEdges: edges filed by opens do not make a
// directory's cached listing complete.
func TestReadDirAfterPartialEdges(t *testing.T) {
	srv, addr, clk := startSimServer(t)
	seedPath(t, srv, "/d/f", "v1")
	seedPath(t, srv, "/d/g", "v1")
	c := dialSim(t, addr, "c1", clk)
	if _, err := c.Lookup("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("/d/f"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // remote, then from the cached listing
		ents, err := c.ReadDir("/d")
		if err != nil || len(ents) != 2 {
			t.Fatalf("ReadDir(/d) round %d = %v, %v; want f and g", round, ents, err)
		}
	}
}

// TestPathReadNotOwner: the path-addressed read is owner-gated like a
// lookup — a sharded server refuses a foreign path with TNotOwner
// naming the owner, before resolving anything.
func TestPathReadNotOwner(t *testing.T) {
	srvs, ring := startShardedPair(t, 1)
	foreign := pathOwnedBy(t, ring, 1, "/d/f%d")
	seedSkeleton(t, srvs[:], "", "")
	seedFile(t, srvs[1], foreign, "v1")

	r, err := client.NewRouter(ring, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	g0, err := r.GroupCache(0)
	if err != nil {
		t.Fatal(err)
	}
	var no client.NotOwnerError
	if _, err := g0.Read(foreign); !errors.As(err, &no) || no.Group != 1 || no.Epoch != ring.Epoch {
		t.Fatalf("foreign path read at group 0 = %v, want NotOwner{1, %d}", err, ring.Epoch)
	}
	if got := sentBy(g0); got != (sent{reads: 1}) {
		t.Fatalf("group 0 session sent %+v, want the one TRead", got)
	}
	if got := g0.HeldLeases(); got != 0 {
		t.Fatalf("refused read left %d leases", got)
	}
	if data, err := r.Read(foreign); err != nil || string(data) != "v1" || r.Redirects() != 0 {
		t.Fatalf("routed read = %q, %v after %d redirects", data, err, r.Redirects())
	}
}

// TestAllocFreeWarmLookup: resolving a cached depth-3 path allocates
// nothing.
func TestAllocFreeWarmLookup(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Hour})
	seedPath(t, srv, "/a/b/f", "v1")
	c, err := client.Dial(addr, client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup("/a/b/f"); err != nil {
		t.Fatal(err)
	}
	before := sentBy(c)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := c.Lookup("/a/b/f"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm Lookup of a depth-3 path allocates %v times, want 0", n)
	}
	if got := sentBy(c).minus(before); got != (sent{}) {
		t.Fatalf("warm lookups sent %+v", got)
	}
}
