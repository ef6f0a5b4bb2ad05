package cache

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// prog assembles a program from (opcode, operand) pairs.
func prog(steps ...byte) []byte { return steps }

// The four client stale reads found since the benchmark landed, as
// programs: each fails with the defect put back into the Core.
var regressions = map[string][]byte{
	// bench/README finding 1 (TestCrossedWriteDropsOldCopy): a callback
	// for some other datum crosses this cache's write in flight; the
	// write's reply may not be cached, and the pre-write copy must go.
	"crossed-write": prog(
		opRead, pathArg("/f"), opDeliver, 0, opRead, pathArg("/c/f"), opDeliver, 0,
		opOwnWrite, pathArg("/f"), opOtherWrite, pathArg("/c/f"), opDeliver, 0),
	// bench/README finding 2 (TestLateReadReplyKeepsNewerWrite): a read
	// served before this cache's own write is waited on after it. First
	// with nothing known of the file — only a floor left by the write can
	// stop the reply — then with its contents leased.
	"late-read-unleased": prog(
		opRead, pathArg("/f"), opOwnWrite, pathArg("/f"), opDeliver, 1, opDeliver, 0),
	"late-read-leased": prog(
		opRead, pathArg("/f"), opDeliver, 0, opAdvance, 7,
		opRead, pathArg("/f"), opOwnWrite, pathArg("/f"), opDeliver, 1, opDeliver, 0),
	// TestRegrantAtNewVersionPurgesDirectory: the lease on "/" lapses,
	// another client removes /f unasked, and the next lookup in "/"
	// re-grants the binding at the new version.
	"regrant-new-version": prog(
		opLookup, pathArg("/f"), opDeliver, 0, opAdvance, 7,
		opOtherMutate, pathArg("/f")|1<<6, opLookup, pathArg("/a"), opDeliver, 0),
	// TestOwnMutationUnderDroppedAncestor: /a's edges are called back,
	// /a/b's live on; this cache's own rename and remove under /a/b must
	// reach them although /a/b no longer resolves by path.
	"own-mutation-under-dropped-ancestor": prog(
		opRead, pathArg("/a/b/f"), opDeliver, 0, opRead, pathArg("/a/b/g"), opDeliver, 0,
		opOtherMutate, pathArg("/a/g"),
		opOwnRename, byte(pathArg("/a/b/f")-1)|pathArg("/a/b/h")<<3, opDeliver, 0,
		opOwnRemove, pathArg("/a/b/g"), opDeliver, 0,
		opLookup, pathArg("/a/b"), opDeliver, 0),
	// The namespace bugfix of this change: a rename that fails after its
	// source removal applied leaves no reply naming the directory.
	"torn-rename": prog(
		opRead, pathArg("/a/f"), opDeliver, 0,
		opOwnRenameTorn, byte(pathArg("/a/f")-1)|pathArg("/c/g")<<3, opDeliver, 0),
	// Two own writes of one file waited on newest first: the older reply
	// must not roll the copy back.
	"reordered-own-writes": prog(
		opRead, pathArg("/f"), opDeliver, 0,
		opOwnWrite, pathArg("/f"), opOwnWrite, pathArg("/f"), opDeliver, 1, opDeliver, 0),
	// An own create in a directory whose lease lapsed over somebody
	// else's removal: two versions on, the edges cannot be patched.
	"own-mutation-after-missed-change": prog(
		opLookup, pathArg("/f"), opDeliver, 0, opAdvance, 7,
		opOtherMutate, pathArg("/f")|1<<6, opOwnCreate, pathArg("/g"), opDeliver, 0,
		opLookup, pathArg("/a"), opDeliver, 0),
	// A node's attributes are part of its parent's binding: gone with
	// the parent's edges — called back, or re-granted at a new version
	// after a lapse — they must not come back with the edge alone (a
	// listing refiles edges, not attributes).
	"attr-outlives-callback": prog(
		opLookup, pathArg("/f"), opDeliver, 0, opOtherMutate, pathArg("/f"),
		opList, pathArg("/"), opDeliver, 0),
	"attr-outlives-regrant": prog(
		opLookup, pathArg("/f"), opDeliver, 0, opAdvance, 7, opOtherMutate, pathArg("/f"),
		opList, pathArg("/"), opDeliver, 0),
	// A member leaves the class on a write while this cache's lease on it
	// is lapsed and is installed again: the new snapshot must not revive
	// the old copy.
	"reinstalled-member": prog(
		opInstall, 0, opRead, pathArg("/a/b/f"), opDeliver, 0, opSnapshot, 0, opDeliver, 0,
		opAdvance, 7, opOtherWrite, pathArg("/a/b/f"), opInstall, 0, opSnapshot, 0, opDeliver, 0),
	// Two lookups under "/" served either side of a lapse and a removal,
	// waited on newest first: the older must not file its edge under the
	// newer grant.
	"reordered-lookups": prog(
		opLookup, pathArg("/f"), opAdvance, 7, opOtherMutate, pathArg("/f")|1<<6,
		opLookup, pathArg("/a"), opDeliver, 1, opDeliver, 0),
	// A renewal of /f rides a request past half the term; another
	// client's write calls /f back while it is in flight, and the
	// refetch's reply lands first: the renewal is filed nowhere.
	"renewal-crosses-callback": prog(
		opRead, pathArg("/f"), opDeliver, 0, opAdvance, 1, opRead, pathArg("/f"),
		opRide, 0, opOtherWrite, pathArg("/f"), opRead, pathArg("/f"), opDeliver, 1, opDeliver, 0),
	// /f is read, called back with a refill asked for, and carried back on
	// a request; a second callback reaches the cache before that reply: the
	// refill is filed nowhere, and the next read fetches.
	"refill-crosses-callback": prog(
		opRead, pathArg("/f"), opDeliver, 0, opOtherWrite, pathArg("/f"),
		opRefill, 0, opOtherWrite, pathArg("/f"), opDeliver, 0, opRead, pathArg("/f"), opDeliver, 0),
}

func TestRegressions(t *testing.T) {
	for name, p := range regressions {
		if v := runProgram(p, false); v != "" {
			t.Errorf("%s: %s", name, v)
		}
	}
}

// FuzzCacheCore runs arbitrary interleavings of replies filed at the
// epoch they were requested under, callbacks, own writes and namespace
// mutations, lease lapses, reconnects and class frames against the
// reference server of sim_test.go.
func FuzzCacheCore(f *testing.F) {
	for _, p := range regressions {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 400 {
			t.Skip()
		}
		if v := runProgram(p, false); v != "" {
			t.Fatal(v)
		}
	})
}

// randomProgram draws steps so that state builds up rather than being
// reset: mostly fetches, deliveries and own changes on a few hot paths,
// now and then a lapse, a callback or a reconnect.
func randomProgram(rng *rand.Rand, steps int) []byte {
	hot := []string{"/f", "/a/b/f", "/a/b/g", "/a/f"}
	often := []byte{opRead, opRead, opLookup, opDeliver, opDeliver, opDeliver, opOwnWrite, opOwnWrite, opOtherWrite, opOtherMutate,
		opOwnCreate, opOwnRemove, opOwnRename, opList, opExtend, opRide, opRefill, opInstall, opBroadcast, opSnapshot}
	p := make([]byte, 0, 2*steps)
	for i := 0; i < steps; i++ {
		op, arg := often[rng.Intn(len(often))], byte(rng.Intn(256))
		switch r := rng.Intn(20); {
		case r == 0:
			op = byte(rng.Intn(opCount))
		case r < 12 && op != opDeliver && op != opOwnRename:
			arg = arg&0xc0 | pathArg(hot[rng.Intn(len(hot))])
		}
		p = append(p, op, arg)
	}
	return p
}

// TestRandomWalk is the fuzz target's standing budget in tier-1: seeded
// random programs, every step checked.
func TestRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if v := runProgram(randomProgram(rng, 80), false); v != "" {
			t.Fatalf("program %d: %s", i, v)
		}
	}
}

// TestOracleSeesMissingFence keeps the harness honest: with every reply
// filed under the current epoch, some program of the same walk must
// fail.
func TestOracleSeesMissingFence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if v := runProgram(randomProgram(rng, 80), true); v != "" {
			t.Logf("program %d: %s", i, v[:strings.IndexByte(v, '\n')])
			return
		}
	}
	t.Fatal("no program caught the missing fence")
}

// warmCore leases /a/b/f whole-path and returns the instant it did.
func warmCore(t testing.TB) (*Core, time.Time) {
	c, now := New(time.Second), simStart
	attr := vfs.Attr{ID: 5, Name: "f", Version: 1}
	chain := []vfs.Edge{{Dir: 1, Child: 2, IsDir: true}, {Dir: 2, Child: 3, IsDir: true}, {Dir: 3, Child: 5}}
	grants := []proto.GrantWire{
		{Datum: binding(1), Term: time.Hour, Version: 1, Leased: true},
		{Datum: binding(2), Term: time.Hour, Version: 1, Leased: true},
		{Datum: binding(3), Term: time.Hour, Version: 1, Leased: true},
		{Datum: vfs.Datum{Kind: vfs.FileData, Node: 5}, Term: time.Hour, Version: 1, Leased: true},
	}
	if !c.File(c.Begin(now), Reply{Path: "/a/b/f", Attr: attr, Chain: chain, Grants: grants, Data: []byte("v1")}, now) {
		t.Fatal("fresh reply fenced")
	}
	return c, now
}

// TestAllocFreeWarmPath: the warm hit and the warm depth-3 resolve
// allocate nothing.
func TestAllocFreeWarmPath(t *testing.T) {
	c, now := warmCore(t)
	d := vfs.Datum{Kind: vfs.FileData, Node: 5}
	if n := testing.AllocsPerRun(1000, func() {
		ent, ok := c.Resolve("/a/b/f", now)
		if data, hit := c.Contents(ent.Datum(), now); !ok || !hit || len(data) != 2 || ent.Datum() != d {
			t.Fatal("warm read missed")
		}
		if _, ok := c.Attr("/a/b/f", now); !ok {
			t.Fatal("warm lookup missed")
		}
	}); n != 0 {
		t.Fatalf("warm resolve + hit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if due := c.AppendRenewals(nil, now); len(due) != 0 {
			t.Fatalf("renewals due at the grant: %v", due)
		}
	}); n != 0 {
		t.Fatalf("AppendRenewals with nothing due allocates %v times, want 0", n)
	}
}

// TestRenewalsFollowUse: a lease is renewed once it has served a hit and
// is past half its term, once per hit; a lease nobody used is not, and
// a request with nothing due reads no record.
func TestRenewalsFollowUse(t *testing.T) {
	c, now := warmCore(t) // /a/b/f, leased for an hour with its three directories
	f := vfs.Datum{Kind: vfs.FileData, Node: 5}
	half := now.Add(31 * time.Minute)
	if due := c.AppendRenewals(nil, half); len(due) != 0 {
		t.Fatalf("renewals nobody used: %v", due)
	}
	if _, ok := c.Contents(f, now); !ok {
		t.Fatal("warm read missed")
	}
	if due := c.AppendRenewals(nil, now.Add(29*time.Minute)); len(due) != 0 {
		t.Fatalf("renewals before half the term: %v", due)
	}
	if due := c.AppendRenewals(nil, half); len(due) != 1 || due[0] != f {
		t.Fatalf("renewals of a used lease past half its term = %v, want [%v]", due, f)
	}
	if due := c.AppendRenewals(nil, half); len(due) != 0 {
		t.Fatalf("a renewal listed twice for one hit: %v", due)
	}
	if _, ok := c.Resolve("/a/b/f", half); !ok {
		t.Fatal("warm resolve missed")
	}
	want := []vfs.Datum{binding(1), binding(2), binding(3)}
	if due := c.AppendRenewals(nil, half); len(due) != 3 || due[0] != want[0] || due[1] != want[1] || due[2] != want[2] {
		t.Fatalf("renewals after a resolve = %v, want the walked directories %v", due, want)
	}
	// The grant that answers a renewal moves it a half term on.
	c.Contents(f, half)
	c.FileExtension(c.Begin(half), []proto.GrantWire{{Datum: f, Term: time.Hour, Version: 1, Leased: true}}, half)
	if due := c.AppendRenewals(nil, half.Add(29*time.Minute)); len(due) != 0 {
		t.Fatalf("renewed lease due again before half its new term: %v", due)
	}
	if due := c.AppendRenewals(nil, half.Add(31*time.Minute)); len(due) != 1 || due[0] != f {
		t.Fatalf("renewed lease past half its new term = %v", due)
	}
}

// TestLapseAndRevive: past the term nothing is served; a re-grant at the
// same version revives the copy without refetching it, and one at
// another version does not.
func TestLapseAndRevive(t *testing.T) {
	c, now := warmCore(t)
	d := vfs.Datum{Kind: vfs.FileData, Node: 5}
	later := now.Add(2 * time.Hour)
	if _, ok := c.Contents(d, later); ok {
		t.Fatal("served past the term")
	}
	c.FileExtension(c.Begin(later), []proto.GrantWire{{Datum: d, Term: time.Hour, Version: 1, Leased: true}}, later)
	if data, ok := c.Contents(d, later); !ok || string(data) != "v1" {
		t.Fatalf("same-version re-grant did not revive the copy: %q, %v", data, ok)
	}
	c.File(c.Begin(later), Reply{Attr: vfs.Attr{ID: 5, Version: 3}, Grants: []proto.GrantWire{{Datum: d, Term: time.Hour, Version: 3, Leased: true}}}, later)
	if data, ok := c.Contents(d, later); ok && string(data) == "v1" {
		t.Fatal("re-grant at a new version kept the old copy")
	}
}

func fileDatum(n uint64) vfs.Datum { return vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(n)} }

// leaseUntil leaves c holding a lease on file n that expires at expiry
// (zero: never); c deducts no allowance.
func leaseUntil(c *Core, n uint64, expiry time.Time) {
	at, term := simStart.Add(-time.Hour), core.Infinite
	if !expiry.IsZero() {
		term = expiry.Sub(at)
	}
	c.File(Req{At: at}, Reply{Attr: vfs.Attr{ID: vfs.NodeID(n)}, Grants: []proto.GrantWire{{Datum: fileDatum(n), Term: term, Leased: true}}}, at)
}

func TestClassSnapshotAndBroadcast(t *testing.T) {
	c, now := New(0), simStart
	if _, _, stale := c.Class(); stale {
		t.Fatal("fresh cache reports a stale class")
	}
	if c.Broadcast(0, time.Second, now, now) {
		t.Fatal("generation-zero broadcast applied to an empty snapshot")
	}
	if c.Broadcast(3, time.Second, now, now) {
		t.Fatal("broadcast for an unknown generation applied")
	}
	if _, _, stale := c.Class(); !stale {
		t.Fatal("generation mismatch did not mark the snapshot stale")
	}
	leaseUntil(c, 1, now.Add(time.Second))
	leaseUntil(c, 2, now.Add(-time.Second)) // lapsed: no broadcast may revive it
	c.Snapshot(3, 30*time.Second, []vfs.Datum{fileDatum(1), fileDatum(2)}, now, now)
	if gen, members, stale := c.Class(); gen != 3 || members != 2 || stale {
		t.Fatalf("snapshot state = gen %d, %d members, stale %v", gen, members, stale)
	}
	if !c.Broadcast(3, 40*time.Second, now, now) {
		t.Fatal("matching broadcast refused")
	}
	if c.valid(fileDatum(1), now.Add(39*time.Second)) == nil || c.valid(fileDatum(1), now.Add(41*time.Second)) != nil {
		t.Fatal("member under a valid lease not extended to the broadcast's stamp + term")
	}
	if c.valid(fileDatum(2), now) != nil {
		t.Fatal("broadcast revived a lapsed member")
	}
	// Membership changed at the server: the next broadcast carries a new
	// generation and must not extend under the old member list.
	if c.Broadcast(4, time.Hour, now, now) {
		t.Fatal("stale-generation broadcast applied")
	}
	if _, _, stale := c.Class(); !stale || c.valid(fileDatum(1), now.Add(41*time.Second)) != nil {
		t.Fatal("newer generation did not mark the snapshot stale, or extended under it")
	}
	c.DropAll()
	if gen, members, stale := c.Class(); gen != 0 || members != 0 || stale {
		t.Fatal("DropAll left class state behind")
	}
}

func TestPlanRenewal(t *testing.T) {
	c, now := New(0), simStart
	base := 8 * time.Second // lead 4s, floor 1s
	// Nothing held: sleep a full period.
	if p := c.PlanRenewal(now, base); len(p.Due) != 0 || p.Wake != base {
		t.Fatalf("empty plan = %+v", p)
	}
	leaseUntil(c, 5, now.Add(time.Hour)) // far-future expiries never extend the sleep past one period
	leaseUntil(c, 3, time.Time{})        // infinite: never due
	if p := c.PlanRenewal(now, base); len(p.Due) != 0 || p.Wake != base {
		t.Fatalf("far-off plan = %+v", p)
	}
	leaseUntil(c, 1, now.Add(2*time.Second)) // inside the lead: due
	leaseUntil(c, 2, now.Add(-time.Second))  // expired: due
	leaseUntil(c, 4, now.Add(6*time.Second)) // 2s past the lead
	p := c.PlanRenewal(now, base)
	if len(p.Due) != 2 || p.Due[0] != fileDatum(1) || p.Due[1] != fileDatum(2) {
		t.Fatalf("Due = %v", p.Due)
	}
	if p.Wake != 2*time.Second { // file 4 enters the lead window in 2s
		t.Fatalf("Wake = %v, want 2s", p.Wake)
	}
	// An expiry just past the lead window clamps to the floor rather
	// than spinning.
	leaseUntil(c, 6, now.Add(4*time.Second+time.Millisecond))
	if p := c.PlanRenewal(now, base); p.Wake != time.Second {
		t.Fatalf("Wake = %v, want floor 1s", p.Wake)
	}
}
