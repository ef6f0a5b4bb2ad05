package srvcore

// A byte-program simulation around the Core and its Machine, shared by
// the fuzz target, the seeded random walk and the pinned regressions. The
// driver half is the dumbest honest shell: it parks, reports ships and
// applies and performs demotions when told to, lets time pass when told
// to — ticking the machine at each wake instant it was handed, as a shell's
// one timer would — and approves for a holder when told to. The oracle
// half keeps its own small books — who was granted what until when and
// has not approved it away, when the recovery window armed by the last
// promotion ends, the coverage horizon of every broadcast sent, whether
// the gate is open — and after every step the machine hands out
// requires:
//
//   - no Apply (and no Ship) while a client other than the writer holds
//     an unexpired, unapproved lease on one of the plan's data, or before
//     the recovery window or a demoted datum's class horizon has passed;
//   - no Ship or Apply with the serving gate closed;
//   - a parked plan stepped past its wait no earlier than the approval or
//     expiry that readies it: not past a Wait before its instant, not past
//     an Approval while another client's lease on its datum stands;
//   - each path's shipped sequence strictly above the last;
//   - no grant, and no class extension, for a term past the Config's
//     Ceiling: the recovery window a shell makes durable before it
//     serves;
//   - a plan Exposed exactly once it has been handed a Ship step;
//   - every plan ending in exactly one of Done and Fail, with no held
//     entry of its writer left in the lease manager, and none lost: once
//     the program ends and time runs on, every plan ends.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"leases/internal/clock"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/vfs"
)

const (
	simTerm      = 10 * time.Second
	simClassTerm = 20 * time.Second
	simFiles     = 3
	simSlots     = 4
)

var (
	simStart   = clock.Epoch.Add(time.Hour)
	simClients = []core.ClientID{"a", "b", "c"}
	errSim     = errors.New("sim: injected failure")
)

type simPlan struct {
	p      Plan
	slot   int
	writer core.ClientID
	data   []vfs.Datum
	// st is the step the driver holds the plan at (zero: it is parked);
	// parkedAt the step it is parked on.
	st       Step
	parkedAt Step
	holders  []core.ClientID
	ended    bool
	shipped  bool // it was handed a Ship step
}

type simWorld struct {
	now   time.Time
	clk   *clock.Sim
	store *vfs.Store
	core  *Core
	m     *Machine
	wake  time.Time   // the instant the machine wants ticked
	data  []vfs.Datum // the files' data, then the root binding
	paths []string
	plans [simSlots]*simPlan

	// The oracle's books.
	master, serving bool
	lease           map[core.ClientID]map[vfs.Datum]time.Time
	recoverUntil    time.Time
	ceiling         time.Duration
	cover           time.Time
	members         map[vfs.Datum]bool
	demotedUntil    map[vfs.Datum]time.Time
	lastSeq         map[string]uint64
	// lie makes the driver claim a later instant than the oracle's: the
	// harness's own self-test that the oracle can see an early apply.
	lie   bool
	trace []string
}

func newSimWorld() *simWorld {
	w := &simWorld{
		now: simStart, clk: clock.NewSimAt(simStart),
		lease:        map[core.ClientID]map[vfs.Datum]time.Time{},
		members:      map[vfs.Datum]bool{},
		demotedUntil: map[vfs.Datum]time.Time{},
		lastSeq:      map[string]uint64{},
	}
	w.store = vfs.New(w.clk, "srv")
	for f := 0; f < simFiles; f++ {
		path := fmt.Sprintf("/f%d", f)
		res, err := w.store.Apply(vfs.Op{Kind: vfs.OpCreate, Path: path, Owner: "srv", Perm: vfs.DefaultPerm | vfs.WorldWrite})
		if err != nil {
			panic(err)
		}
		w.paths = append(w.paths, path)
		w.data = append(w.data, res.Attr.Datum())
	}
	w.data = append(w.data, vfs.Datum{Kind: vfs.DirBinding, Node: vfs.RootID})
	cfg := Config{
		Store: w.store, Owner: "srv", Term: simTerm, Shards: 2,
		Master: func(time.Time) bool { return w.master },
		Class:  ClassConfig{InstalledDirs: []string{"/"}, InstalledTerm: simClassTerm}.WithDefaults(),
	}
	w.core = New(cfg)
	// The oracle's own reckoning of the longest term: a stretched renewal,
	// or the class term if that is longer.
	w.ceiling = max(core.ReuseFactor*simTerm, simClassTerm)
	if c := cfg.Ceiling(); c != w.ceiling {
		w.fail("Config.Ceiling() = %v, want %v", c, w.ceiling)
	}
	w.m = NewMachine(w.core, 0, nil, nil, "")
	w.promote(0, 0)
	return w
}

// at is the instant the driver hands the machine.
func (w *simWorld) at() time.Time {
	if w.lie {
		return w.now.Add(2 * simClassTerm)
	}
	return w.now
}

func (w *simWorld) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf("%6.1fs ", w.now.Sub(simStart).Seconds())+fmt.Sprintf(format, args...))
}

// violation is what the oracle panics with; runProgram recovers it.
type violation string

func (w *simWorld) fail(format string, args ...any) {
	panic(violation(fmt.Sprintf("%s\ntrace:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trace, "\n  "))))
}

func (w *simWorld) grant(c core.ClientID, d vfs.Datum) {
	g := w.core.Leases().Grant(c, d, w.now)
	w.logf("grant %s %v leased=%v term=%v", c, d, g.Leased, g.Term)
	if g.Term > w.ceiling {
		w.fail("%s granted %v on %v, past the ceiling %v", c, g.Term, d, w.ceiling)
	}
	if g.Leased {
		if w.lease[c] == nil {
			w.lease[c] = map[vfs.Datum]time.Time{}
		}
		if exp := w.now.Add(g.Term); exp.After(w.lease[c][d]) {
			w.lease[c][d] = exp
		}
	}
	if d.Kind != vfs.FileData {
		return
	}
	// The read also feeds the class, as the drivers' read paths do.
	path, _ := w.store.Path(d.Node)
	if w.core.Classes.ObserveRead(d, path, w.now) {
		if _, added := w.core.ClassAdd(d, path, w.now); added {
			w.members[d] = true
			w.logf("installed %v", d)
		}
	}
}

func (w *simWorld) submit(slot int, writer core.ClientID, data []vfs.Datum, replicate bool) {
	for _, sp := range w.plans {
		if sp != nil && !sp.ended && sp.writer == writer {
			return // one plan per writer, so its held entries can be told apart
		}
	}
	if sp := w.plans[slot]; sp != nil && !sp.ended {
		return
	}
	sp := &simPlan{slot: slot, writer: writer, data: data, p: w.core.Plan(writer, data...)}
	if replicate && data[0].Kind == vfs.FileData {
		path, _ := w.store.Path(data[0].Node)
		sp.p.Ship(vfs.Op{Kind: vfs.OpWrite, Node: data[0].Node, Path: path, Data: []byte(fmt.Sprintf("%s@%d", writer, len(w.trace)))})
	}
	w.plans[slot] = sp
	w.logf("submit #%d by %s on %v", slot, writer, data)
	w.effects(sp, w.m.Begin(&sp.p, tracing.Context{}, w.at()))
}

// effects takes what one machine input handed out: sp's own next step
// (sp nil: the input was about no plan the driver holds), the steps of
// parked plans, and the wake instant.
func (w *simWorld) effects(sp *simPlan, e Effects) {
	if sp != nil {
		w.take(sp, e.Step)
	}
	for _, st := range e.Parked {
		sp, ok := st.Owner.(*simPlan)
		if !ok {
			w.fail("the machine handed out step %d with owner %v", st.Kind, st.Owner)
		}
		w.logf("machine: #%d -> %d (id %d until %v)", sp.slot, st.Kind, st.WriteID, st.Until.Sub(simStart))
		if st.Kind == Wait || st.Kind == Approval {
			if sp.ended || sp.st.Kind != 0 && sp.st.Kind != st.Kind {
				w.fail("plan #%d parked on step %d while its driver holds it at %d", sp.slot, st.Kind, sp.st.Kind)
			}
			if sp.parkedAt.Kind != 0 {
				w.waitOver(sp, st)
			}
			sp.st, sp.parkedAt = Step{}, st
			if st.Kind == Approval {
				sp.holders = st.Holders
			}
			continue
		}
		if sp.parkedAt.Kind == 0 {
			w.fail("plan #%d handed back at step %d, never parked", sp.slot, st.Kind)
		}
		w.waitOver(sp, st)
		sp.parkedAt = Step{}
		w.take(sp, st)
	}
	w.wake = w.m.NextWake()
}

// waitOver is the oracle's rule for a parked plan the machine steps on to
// st: past a Wait no earlier than its instant, past an Approval only once
// no other client's lease on its datum stands.
func (w *simWorld) waitOver(sp *simPlan, st Step) {
	if st.Kind == Fail {
		return
	}
	switch was := sp.parkedAt; was.Kind {
	case Wait:
		if w.now.Before(was.Until) {
			w.fail("plan #%d stepped to %d %v before its wait ends", sp.slot, st.Kind, was.Until.Sub(w.now))
		}
	case Approval:
		for _, c := range simClients {
			if exp, held := w.lease[c][was.Datum]; held && c != sp.writer && !core.Expired(exp, w.now) {
				w.fail("plan #%d stepped past its approval on %v to %d while %s holds an unapproved lease for another %v", sp.slot, was.Datum, st.Kind, c, exp.Sub(w.now))
			}
		}
	}
}

// checkClear is the §2 half of the oracle: called when a plan is handed
// Ship or Apply.
func (w *simWorld) checkClear(slot int, sp *simPlan, what string) {
	if !w.master || !w.serving {
		w.fail("plan #%d reached %s with the gate closed", slot, what)
	}
	if w.now.Before(w.recoverUntil) {
		w.fail("plan #%d reached %s %v before the recovery window ends", slot, what, w.recoverUntil.Sub(w.now))
	}
	for _, d := range sp.data {
		if until := w.demotedUntil[d]; w.now.Before(until) {
			w.fail("plan #%d reached %s %v before %v's class horizon", slot, what, until.Sub(w.now), d)
		}
		for _, c := range simClients {
			if exp, held := w.lease[c][d]; held && c != sp.writer && !core.Expired(exp, w.now) {
				w.fail("plan #%d reached %s while %s holds an unapproved lease on %v for another %v", slot, what, c, d, exp.Sub(w.now))
			}
		}
	}
}

// take checks a step the driver now holds sp at.
func (w *simWorld) take(sp *simPlan, st Step) {
	slot := sp.slot
	w.logf("#%d -> %d (id %d until %v)", slot, st.Kind, st.WriteID, st.Until.Sub(simStart))
	switch st.Kind {
	case Wait:
		if !st.Until.After(w.now) && !w.lie {
			w.fail("plan #%d waits for an instant already past", slot)
		}
	case Approval:
	case Demoted:
		for _, d := range st.Dropped {
			if !w.members[d] {
				w.fail("plan #%d dropped %v, which the oracle never saw installed", slot, d)
			}
			delete(w.members, d)
			if w.cover.After(w.now) {
				w.demotedUntil[d] = w.cover
			}
		}
	case Ship:
		sp.shipped = true
		w.checkClear(slot, sp, "Ship")
		if st.Seq <= w.lastSeq[st.Path] {
			w.fail("plan #%d ships %s#%d, not above #%d", slot, st.Path, st.Seq, w.lastSeq[st.Path])
		}
		w.lastSeq[st.Path] = st.Seq
	case Apply:
		w.checkClear(slot, sp, "Apply")
	case Done, Fail:
		sp.ended = true
		for _, d := range sp.data {
			for _, pw := range w.core.Leases().Pending(d) {
				if pw.Writer == sp.writer {
					w.fail("plan #%d ended (%d) leaving write %d held on %v", slot, st.Kind, pw.WriteID, d)
				}
			}
		}
	default:
		w.fail("plan #%d handed out step kind %d", slot, st.Kind)
	}
	if sp.p.Exposed() != sp.shipped {
		w.fail("plan #%d reports Exposed=%v, handed a Ship step: %v", slot, sp.p.Exposed(), sp.shipped)
	}
	sp.st = st
}

// drive has the driver act on slot's plan at the step it holds it at: park
// it at a Wait or Approval, or go on past a demotion.
func (w *simWorld) drive(slot int) {
	sp := w.plans[slot]
	if sp == nil || sp.ended {
		return
	}
	switch st := sp.st; st.Kind {
	case Wait, Approval:
		w.effects(nil, w.m.Park(&sp.p, sp, st, w.at()))
	case Demoted:
		w.effects(sp, w.m.Next(&sp.p, w.at()))
	}
}

// advance lets d pass, ticking the machine at each wake instant it
// handed out on the way.
func (w *simWorld) advance(d time.Duration) {
	end := w.now.Add(d)
	for !w.wake.IsZero() && !w.wake.After(end) {
		if w.wake.After(w.now) {
			w.now = w.wake
			w.clk.AdvanceTo(w.now)
		}
		w.logf("tick")
		w.effects(nil, w.m.Tick(w.at()))
	}
	w.now = end
	w.clk.AdvanceTo(w.now)
}

func (w *simWorld) approve(slot int, which byte) {
	sp := w.plans[slot]
	if sp == nil || sp.ended || sp.parkedAt.Kind != Approval || len(sp.holders) == 0 {
		return
	}
	h, was := sp.holders[int(which)%len(sp.holders)], sp.parkedAt
	w.logf("approve #%d by %s", slot, h)
	// An approval surrenders the lease on the write's datum.
	delete(w.lease[h], was.Datum)
	_, e := w.m.Approve(h, was.WriteID, w.at())
	w.effects(nil, e)
}

// promote runs a whole promotion as the TCP shell does: merge (files:
// one bit per path, each reported one sequence above this replica's),
// settle, raise the ceiling, open — over floor, the peers' merged floor,
// and this replica's own, taken before the raise.
func (w *simWorld) promote(files byte, floor time.Duration) {
	floor = max(floor, w.core.TermFloor())
	var synced []ReplFile
	for f, path := range w.paths {
		if files&(1<<f) != 0 {
			synced = append(synced, ReplFile{Path: path, Seq: w.core.Seq(path) + 1, Data: shippedWrite(path, "synced")})
		}
	}
	for _, f := range w.core.Merge(synced) {
		if f.Seq <= w.lastSeq[f.Path] || f.Seq <= w.core.Seq(f.Path) {
			w.fail("promotion settles %s#%d, not above what was shipped or is held", f.Path, f.Seq)
		}
		w.lastSeq[f.Path] = f.Seq
		w.core.Settled(f)
	}
	for _, path := range w.paths {
		w.lastSeq[path] = max(w.lastSeq[path], w.core.Seq(path))
	}
	w.core.RaiseTerm(w.ceiling)
	w.core.Promote(floor, w.now)
	w.master, w.serving = true, true
	w.recoverUntil = w.now.Add(floor)
	w.logf("promoted files=%b floor=%v", files, floor)
}

// Program encoding: (op, arg) byte pairs.
const (
	opGrant = iota
	opSubmit
	opNext
	opApprove
	opAdvance
	opShipped
	opApplied
	opApplyReplicated
	opPromote
	opDemote
	opBroadcast
	opAbort
	opRelease
	opCount
)

func (w *simWorld) step(op, arg byte) {
	slot := int(arg) % simSlots
	sp := w.plans[slot]
	switch op % opCount {
	case opGrant:
		w.grant(simClients[int(arg)%len(simClients)], w.data[int(arg>>2)%len(w.data)])
	case opSubmit:
		data := []vfs.Datum{w.data[int(arg>>4)%simFiles]}
		if arg&0x80 != 0 {
			data = append(data, w.data[simFiles]) // and the root binding
		}
		w.submit(slot, simClients[int(arg>>2)%len(simClients)], data, arg&0x40 == 0)
	case opNext:
		w.drive(slot)
	case opApprove:
		w.approve(slot, arg>>2)
	case opAdvance:
		w.advance(time.Duration(arg) * 200 * time.Millisecond)
	case opShipped:
		if sp != nil && sp.st.Kind == Ship {
			var err error
			if arg&4 != 0 {
				err = errSim
			}
			w.effects(sp, w.m.Report(&sp.p, err, w.at()))
		}
	case opApplied:
		if sp != nil && sp.st.Kind == Apply {
			var err error
			if arg&4 != 0 {
				err = errSim
			}
			w.effects(sp, w.m.Report(&sp.p, err, w.at()))
		}
	case opApplyReplicated:
		path := w.paths[int(arg)%simFiles]
		if applied, _ := w.core.ApplyReplicated(path, w.core.Seq(path)+uint64(arg>>6), shippedWrite(path, "pushed")); applied != (arg>>6 > 0) {
			w.fail("ApplyReplicated(%s, +%d) applied=%v", path, arg>>6, applied)
		}
		w.lastSeq[path] = max(w.lastSeq[path], w.core.Seq(path))
	case opPromote:
		w.core.Demote()
		w.promote(arg&7, time.Duration(arg>>3)*time.Second)
	case opDemote:
		w.master = false
		w.logf("deposed (demote=%v)", arg&1 == 0)
		if arg&1 == 0 {
			w.serving = false
			w.effects(nil, w.m.Demote(w.at()))
		}
	case opBroadcast:
		if !w.core.Serving(w.now) {
			return
		}
		var term time.Duration
		sent := false
		if arg&1 == 0 {
			var bw proto.BroadcastExtWire
			bw, sent = w.core.Classes.Broadcast(w.now)
			term = bw.Term
		} else {
			iw := w.core.Classes.Snapshot(w.now)
			sent, term = len(iw.Data) > 0, iw.Term
		}
		if sent != (len(w.members) > 0) {
			w.fail("class extension sent=%v with %d members", sent, len(w.members))
		}
		if sent {
			if term > w.ceiling {
				w.fail("class extension for %v, past the ceiling %v", term, w.ceiling)
			}
			w.cover = w.now.Add(term)
		}
	case opAbort:
		if sp != nil && !sp.ended && sp.st.Kind != 0 && sp.st.Kind != Apply {
			sp.p.abort(errSim, w.at())
			w.effects(sp, w.m.Next(&sp.p, w.at()))
		}
	case opRelease:
		c, d := simClients[int(arg)%len(simClients)], w.data[int(arg>>2)%len(w.data)]
		delete(w.lease[c], d)
		w.effects(nil, w.m.Release(c, []vfs.Datum{d}, w.at()))
	}
}

// runProgram runs prog from a fresh world and returns the oracle's first
// complaint, or "". Then the driver finishes honestly what it holds and
// time runs on: every plan must end, and leave nothing behind.
func runProgram(prog []byte, lie bool) (found string) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case violation:
			found = string(v)
		default:
			panic(v)
		}
	}()
	w := newSimWorld()
	w.lie = lie
	for i := 0; i+1 < len(prog); i += 2 {
		w.step(prog[i], prog[i+1])
	}
	w.logf("drain")
	for round := 0; round < 8; round++ {
		for slot, sp := range w.plans {
			for sp != nil && !sp.ended && sp.st.Kind != 0 {
				if k := sp.st.Kind; k == Ship || k == Apply {
					w.effects(sp, w.m.Report(&sp.p, nil, w.at()))
				} else {
					w.drive(slot)
				}
			}
		}
		w.advance(2 * simClassTerm)
	}
	for slot, sp := range w.plans {
		if sp != nil && !sp.ended {
			w.fail("plan #%d lost: parked at step %d (id %d), held at %d", slot, sp.parkedAt.Kind, sp.parkedAt.WriteID, sp.st.Kind)
		}
	}
	return ""
}
