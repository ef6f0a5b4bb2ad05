package srvcore

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// regressions are the four server-side pinned counterexamples of
// internal/check/testdata/counterexamples as programs for the core —
// each the honest run of the schedule its sabotage breaks — plus shapes
// the walk found worth keeping.
var regressions = map[string][]byte{
	// write-defer-immediate-apply: a reads f0, b writes it; the write
	// waits for a's approval, then ships, applies, ends.
	"write-defer": {opGrant, 0, opSubmit, 4, opNext, 0, opNext, 0, opApprove, 0, opNext, 0, opShipped, 0, opNext, 0, opApplied, 0, opNext, 0},
	// The same write with a unreachable: the lease runs out instead.
	"write-defer-expiry": {opGrant, 0, opSubmit, 4, opNext, 0, opAdvance, 51, opNext, 0, opShipped, 0, opNext, 0, opApplied, 0, opNext, 0},
	// failover-no-recovery-wait: a fresh master's first write waits out
	// the window the quorum's 2s floor arms.
	"quiet": {opPromote, 16, opSubmit, 4, opNext, 0, opNext, 0, opAdvance, 15, opNext, 0, opShipped, 0, opNext, 0, opApplied, 0, opNext, 0},
	// class-horizon-stale-covered-read: f1 installed and broadcast; a
	// write past its per-file term demotes it and waits out the horizon.
	"class-horizon": {opGrant, 4, opBroadcast, 0, opAdvance, 55, opSubmit, 20, opNext, 0, opNext, 0, opNext, 0, opAdvance, 50, opNext, 0, opShipped, 0, opNext, 0, opApplied, 0, opNext, 0},
	// rename-commit-before-source-clearance: the move's commit point is a
	// write to the file and its parent binding, cleared in datum order.
	"rename-order": {opGrant, 0, opGrant, 13, opSubmit, 200, opNext, 0, opApprove, 0, opNext, 0, opApprove, 0, opNext, 0, opApplied, 0, opNext, 0},
	// A master deposed between Ship and Apply must not apply.
	"deposed-mid-ship": {opSubmit, 4, opNext, 0, opDemote, 1, opShipped, 0, opNext, 0},
}

func TestRegressions(t *testing.T) {
	for name, p := range regressions {
		if v := runProgram(p, false); v != "" {
			t.Errorf("%s: %s", name, v)
		}
	}
}

// FuzzServerCore runs arbitrary interleavings of grants, plans stepped,
// approved, shipped, applied and abandoned, time passing, promotions,
// demotions and class extensions against the oracle of sim_test.go.
func FuzzServerCore(f *testing.F) {
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

// randomProgram draws steps so that plans make progress rather than
// pile up: mostly grants, submissions, steps and their reports, now and
// then a failover, a class extension or a long wait.
func randomProgram(rng *rand.Rand, steps int) []byte {
	often := []byte{opGrant, opGrant, opSubmit, opNext, opNext, opNext, opNext, opApprove, opApprove,
		opShipped, opApplied, opAdvance, opBroadcast, opRelease}
	p := make([]byte, 0, 2*steps)
	for i := 0; i < steps; i++ {
		op, arg := often[rng.Intn(len(often))], byte(rng.Intn(256))
		switch r := rng.Intn(40); {
		case r == 0:
			op = opPromote
		case r == 1:
			op = opDemote
		case r == 2:
			op = opAbort
		case r == 3:
			op = opApplyReplicated
		case op == opShipped || op == opApplied:
			arg &^= 4 * byte(rng.Intn(8)/7) // mostly successes
		case op == opAdvance:
			arg %= 40
		}
		p = append(p, op, arg)
	}
	return p
}

func TestRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if v := runProgram(randomProgram(rng, 120), false); v != "" {
			t.Fatalf("program %d: %s", i, v)
		}
	}
}

// TestOracleSeesEarlyApply keeps the harness honest: with a driver that
// claims a later instant than the oracle's — so leases look expired and
// waits look served — some program of the same walk must fail.
func TestOracleSeesEarlyApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if v := runProgram(randomProgram(rng, 120), true); v != "" {
			t.Logf("program %d: %s", i, v[:strings.IndexByte(v, '\n')])
			return
		}
	}
	t.Fatal("no program caught the lying driver")
}

// TestAllocFreeUnsharedWritePlan: the common write — nobody else holds a
// lease on the datum — goes from its op through submit to Apply to Done
// without allocating: it never enters the machine's table.
func TestAllocFreeUnsharedWritePlan(t *testing.T) {
	store := vfs.New(clock.NewSim(), "srv")
	a, err := store.Create("/f", "writer", vfs.DefaultPerm)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Store: store, Term: time.Minute, Shards: 4})
	op, now := vfs.Op{Kind: vfs.OpWrite, Node: a.ID, Data: []byte("x")}, clock.Epoch
	m := NewMachine(c, 0, nil, nil, "")
	if n := testing.AllocsPerRun(1000, func() {
		p, err := c.Plan("writer", op)
		if err != nil {
			t.Fatal(err)
		}
		if e := m.Begin(&p, tracing.Context{}, now); e.Step.Kind != Apply || e.Parked != nil {
			t.Fatalf("unshared write was handed step %d and %d others, want Apply alone", e.Step.Kind, len(e.Parked))
		}
		if e := m.Report(&p, nil, now); e.Step.Kind != Done || e.Parked != nil {
			t.Fatalf("applied write was handed step %d and %d others, want Done alone", e.Step.Kind, len(e.Parked))
		}
	}); n != 0 {
		t.Fatalf("an unshared write plan allocates %v times, want 0", n)
	}
}

// TestCeiling: the longest term a Core can grant is the stretched term,
// the plain term with the stretch off or when stretching would overflow,
// and never less than an enabled class's installed term.
func TestCeiling(t *testing.T) {
	class := ClassConfig{InstalledDirs: []string{"/"}, InstalledTerm: time.Minute}
	for _, tc := range []struct {
		cfg  Config
		want time.Duration
	}{
		{Config{Term: 10 * time.Second}, core.ReuseFactor * 10 * time.Second},
		{Config{Term: 10 * time.Second, NoStretch: true}, 10 * time.Second},
		{Config{Term: core.Infinite}, core.Infinite},
		{Config{Term: 10 * time.Second, Class: class}, time.Minute},
		{Config{Term: 10 * time.Second, Class: ClassConfig{InstalledDirs: []string{"/"}}}, 40 * time.Second},
		{Config{Term: time.Second, NoStretch: true, Class: ClassConfig{InstalledDirs: []string{"/"}}}, 30 * time.Second},
	} {
		if got := tc.cfg.Ceiling(); got != tc.want {
			t.Errorf("%+v: Ceiling() = %v, want %v", tc.cfg, got, tc.want)
		}
	}
}

// TestMergeSettlesWhatAQuorumMayNotHold: a file the repliers and this
// replica hold at one sequence is settled; one a single replica holds,
// or holds newer, comes back to be shipped under a fresh sequence.
func TestMergeSettlesWhatAQuorumMayNotHold(t *testing.T) {
	c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Minute, Master: func(time.Time) bool { return true }})
	file := func(path string, seq uint64, data string) ReplFile {
		return ReplFile{Path: path, Seq: seq, Data: shippedWrite(path, data)}
	}
	for _, f := range []ReplFile{file("/same", 3, "s"), file("/mine", 2, "m"), file("/behind", 1, "old")} {
		if applied, err := c.ApplyReplicated(f.Path, f.Seq, f.Data); !applied || err != nil {
			t.Fatal(f.Path, applied, err)
		}
	}
	unsettled := c.Merge([]ReplFile{file("/same", 3, "s"), file("/behind", 4, "new"), file("/theirs", 1, "t"), {Path: "/mine"}})
	got := map[string]uint64{}
	for _, f := range unsettled {
		got[f.Path] = f.Seq
	}
	if want := map[string]uint64{"/mine": 3, "/behind": 5, "/theirs": 2}; len(got) != len(want) || got["/mine"] != 3 || got["/behind"] != 5 || got["/theirs"] != 2 {
		t.Fatalf("unsettled = %v, want %v", got, want)
	}
	if c.Serving(clock.Epoch) {
		t.Fatal("serving before Promote")
	}
	for _, f := range unsettled {
		c.Settled(f)
	}
	if c.Promote(0, clock.Epoch); !c.Serving(clock.Epoch) || c.Seq("/behind") != 5 {
		t.Fatalf("after settle and Promote: serving=%v seq=%d", c.Serving(clock.Epoch), c.Seq("/behind"))
	}
}

// TestReplStateBesideReplicatedWrites: a catch-up dump taken while a
// follower applies shipped writes completes and lists every replicated
// file. It must never take the store's read lock under another: a writer
// queued between the two would block the second, and with it itself.
func TestReplStateBesideReplicatedWrites(t *testing.T) {
	c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Minute})
	for i := 0; i < 64; i++ {
		path := fmt.Sprintf("/f%d", i)
		if _, err := c.ApplyReplicated(path, 1, shippedWrite(path, "x")); err != nil {
			t.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(2); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			c.ApplyReplicated("/f0", seq, shippedWrite("/f0", "y"))
		}
	}()
	dumped := make(chan int)
	go func() {
		n := 0
		for i := 0; i < 200; i++ {
			n = len(c.ReplState())
		}
		dumped <- n
	}()
	select {
	case n := <-dumped:
		if n != 64 {
			t.Errorf("dump holds %d files, want 64", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ReplState still blocked after 10s beside a writer")
	}
	close(stop)
	<-done
}

// shippedWrite is a write of data to path as a master ships it.
func shippedWrite(path, data string) []byte {
	return encodeOp(vfs.Op{Kind: vfs.OpWrite, Path: path, Data: []byte(data)})
}

// TestFollowerCreatesWhatItLacks: a follower that lacks the path of a
// shipped move-in creates the file with the op's owner and permissions; a
// shipped write to a path it lacks creates the file as the configured
// owner, world-writable, until the namespace ships (ROADMAP item 1). Both
// hold the bytes at version 1, and so does a move-in to a path it holds.
func TestFollowerCreatesWhatItLacks(t *testing.T) {
	store := vfs.New(clock.NewSim(), "srv")
	c := New(Config{Store: store, Owner: "srv", Term: time.Minute})
	if _, err := store.Apply(vfs.Op{Kind: vfs.OpCreate, Path: "/held", Owner: "bob", Perm: vfs.DefaultPerm}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op    vfs.Op
		owner string
		perm  vfs.Perm
	}{
		{vfs.Op{Kind: vfs.OpCreate, Path: "/moved", Owner: "alice", Perm: vfs.OwnerRead | vfs.OwnerWrite, Data: []byte("m")}, "alice", vfs.OwnerRead | vfs.OwnerWrite},
		{vfs.Op{Kind: vfs.OpWrite, Path: "/written", Data: []byte("w")}, "srv", vfs.DefaultPerm | vfs.WorldWrite},
		{vfs.Op{Kind: vfs.OpCreate, Path: "/held", Owner: "alice", Perm: vfs.OwnerRead, Data: []byte("h")}, "bob", vfs.DefaultPerm},
	} {
		if applied, err := c.ApplyReplicated(tc.op.Path, 1, encodeOp(tc.op)); !applied || err != nil {
			t.Fatalf("%s: applied=%v err=%v", tc.op.Path, applied, err)
		}
		a, err := store.Lookup(tc.op.Path)
		if err != nil {
			t.Fatal(err)
		}
		data, a, err := store.ReadFile(a.ID)
		if err != nil || string(data) != string(tc.op.Data) || a.Version != 1 || a.Owner != tc.owner || a.Perm != tc.perm {
			t.Errorf("%s holds %q v%d owned by %s perm %v (%v), want %q v1 owned by %s perm %v",
				tc.op.Path, data, a.Version, a.Owner, a.Perm, err, tc.op.Data, tc.owner, tc.perm)
		}
	}
}

// TestShippedOpOfUnknownKindRefused: a pushed op that does not decode is
// refused with the decode error — the master counts no quorum on it — and
// neither its sequence nor the store moves.
func TestShippedOpOfUnknownKindRefused(t *testing.T) {
	store := vfs.New(clock.NewSim(), "srv")
	c := New(Config{Store: store, Owner: "srv", Term: time.Minute})
	bad := encodeOp(vfs.Op{Kind: vfs.OpSetPerm + 1, Path: "/f", Data: []byte("x")})
	if applied, err := c.ApplyReplicated("/f", 1, bad); applied || !errors.Is(err, vfs.ErrBadOp) {
		t.Fatalf("unknown op kind: applied=%v err=%v, want refused with ErrBadOp", applied, err)
	}
	if _, err := store.Lookup("/f"); err == nil || c.Seq("/f") != 0 {
		t.Fatalf("a refused op left /f in the store (%v) or took sequence %d", err, c.Seq("/f"))
	}
}

// TestMachineGivesUpAndCloses: a write parked behind a holder that never
// answers fails at the write timeout, well inside the holder's lease,
// and leaves nothing held or timed; Close fails a parked write at once,
// and every write parked after it.
func TestMachineGivesUpAndCloses(t *testing.T) {
	c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Term: time.Minute, Shards: 2})
	m := NewMachine(c, 10*time.Second, nil, nil, "")
	d, now := vfs.Datum{Kind: vfs.FileData, Node: 7}, clock.Epoch
	c.Leases().Grant("holder", d, now)
	// handed checks that e hands back exactly one step, a Fail for owner
	// with want.
	handed := func(what string, e Effects, owner string, want error) {
		t.Helper()
		if len(e.Parked) != 1 || e.Parked[0].Kind != Fail || e.Parked[0].Owner != owner || !errors.Is(e.Parked[0].Err, want) {
			t.Fatalf("%s handed back %+v, want one Fail for %s with %v", what, e.Parked, owner, want)
		}
		if len(c.Leases().Pending(d)) != 0 || !m.NextWake().IsZero() {
			t.Fatalf("%s left %d writes held, a wake at %v", what, len(c.Leases().Pending(d)), m.NextWake())
		}
	}
	park := func(owner string) Effects {
		t.Helper()
		p := c.plan(core.ClientID(owner), d)
		e := m.Begin(&p, tracing.Context{}, now)
		if e.Step.Kind != Approval {
			t.Fatalf("%s's write was handed step %d, want Approval", owner, e.Step.Kind)
		}
		return m.Park(&p, owner, e.Step, now)
	}
	if e := park("a"); len(e.Parked) != 1 || e.Parked[0].Kind != Approval || len(e.Parked[0].Holders) != 1 {
		t.Fatalf("parking a's write handed out %+v, want one ask of the holder", e.Parked)
	}
	if w := m.NextWake(); !w.Equal(now.Add(10 * time.Second)) {
		t.Fatalf("wake at %v, want the write timeout's 10s", w.Sub(now))
	}
	if e := m.Tick(now.Add(10*time.Second - 1)); len(e.Parked) != 0 {
		t.Fatalf("a tick before the timeout handed back %+v", e.Parked)
	}
	handed("the timeout", m.Tick(now.Add(10*time.Second)), "a", errWriteTimeout)
	park("b")
	handed("Close", m.Close(errSim, now), "b", errSim)
	handed("a park after Close", park("c"), "c", errSim)
}
