package srvcore

import (
	"errors"
	"fmt"
	"path"
	"time"

	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// A Plan is one mutation's way through the server. The paper's §2
// invariant is, on the server, an ordering rule, and the plan is that
// order: serving gate and recovery window → §4.3 class horizon →
// clearance over every datum, in the global datum order so concurrent
// multi-datum writes cannot deadlock → replicate to a quorum → apply →
// release. Only a Machine steps a plan (machine.go): whatever the plan
// waits on is judged against the now it is stepped at, so no step is
// taken early however the machine is woken.

// MaxData is the most data one mutation clears (a remove: the node's
// datum and its parent's binding; a rename: two parents' bindings).
const MaxData = 2

// StepKind says what a plan needs from its driver next.
type StepKind uint8

const (
	// Wait: nothing may happen before Until — the §2 recovery window of a
	// freshly promoted master, or the coverage horizon of installed data
	// the write just demoted (Cause says which).
	Wait StepKind = iota + 1
	// Approval: the held write WriteID on Datum waits for Holders to
	// approve or for their leases to run out at Until (zero: approvals
	// only), until the lease manager reports it ready. Holders is set the
	// first time only.
	Approval
	// Demoted: the write dropped Dropped from the installed class. Path,
	// Seq and Data are the membership image, to replicate best effort.
	Demoted
	// Ship: replicate Data — the plan's op in its wire form — as Path's
	// write number Seq to a quorum, then report Shipped.
	Ship
	// Apply: every datum is cleared and held, the quorum holds the op:
	// apply it to the store, then report Applied.
	Apply
	// Done and Fail end the plan; no held entry is left behind.
	Done
	Fail
	// Raise (a Promotion's step): replicate the ceiling Term to a quorum.
	Raise
)

// Cause says what a Wait step waits out.
type Cause uint8

const (
	RecoveryWindow Cause = iota + 1
	ClassHorizon
)

// Step is one instruction to the driver; which fields are set depends on
// Kind.
type Step struct {
	Kind    StepKind
	Until   time.Time
	Cause   Cause
	WriteID core.WriteID
	Datum   vfs.Datum
	Holders []core.ClientID
	Dropped []vfs.Datum
	Path    string
	Seq     uint64
	Data    []byte
	Err     error
	Term    time.Duration // a Raise's ceiling; a Promotion's window on its Done
	// Owner is the driver's record of a parked plan (Machine.Park), on
	// every step the machine hands back for it.
	Owner any
}

type stage uint8

const (
	atGate stage = iota
	atHorizon
	atClearance
	atShip
	shipping
	atApply
	applying
	done
	failed
)

// Plan is one mutation in flight. The zero value is not usable; see
// Core.Plan.
type Plan struct {
	c      *Core
	writer core.ClientID
	data   [MaxData]vfs.Datum
	held   [MaxData]core.WriteID
	n      int
	// data[:nheld] are cleared and held; cur, when non-zero, is
	// data[nheld]'s entry, submitted and not yet ready.
	nheld   int
	cur     core.WriteID
	stage   stage
	reign   uint64
	horizon time.Time
	// demoted: the class table counts this plan among the writes in flight
	// on its data (ClassTable.demote) until it ends.
	demoted bool
	// op is the mutation, resolved against the store (Core.Plan), bytes
	// its wire form once the Ship step is handed out.
	op    vfs.Op
	bytes []byte
	seq   uint64
	err   error
	// freed: the plan released or cancelled held entries the machine has
	// yet to wake the writes queued behind.
	freed bool

	// The machine's books: when the plan began and the context its spans
	// hang under; and, while parked, its shell's record, its park number
	// (zero: not parked) and place in the table, its Wait instant or its
	// blocking leases' expiry, when it gives up, and the held write it is
	// deferred on, with that deferral's spans.
	start     time.Time
	tc        tracing.Context
	owner     any
	park      uint64
	until     time.Time
	giveUp    time.Time
	pi        int
	waitID    core.WriteID
	deferSp   tracing.Span
	deferNote string
	pushes    []push
}

// rule is one op kind's row of the mutation rule: the data it clears
// and the access it needs on the node it changes.
type rule struct {
	node         bool // the node's own datum: a file's contents, a directory's binding
	dirs         int  // the binding of op.Path's directory, then op.To's
	write, owner bool // write permission on the node; owning it
}

// rules is the mutation rule. Paper §2 makes every mutation a write to
// the data it changes — a file's contents, or the binding of the
// directory that holds a name and its owner and permissions — so every
// lease on them clears first. A create carrying Data is a move-in; a
// remove carrying To is a cross-shard rename's move source, which also
// refuses a directory.
var rules = [...]rule{
	vfs.OpWrite:   {node: true, write: true},
	vfs.OpCreate:  {dirs: 1},
	vfs.OpMkdir:   {dirs: 1},
	vfs.OpRemove:  {node: true, dirs: 1, write: true},
	vfs.OpRename:  {dirs: 2, write: true},
	vfs.OpSetPerm: {dirs: 1, owner: true},
}

// ships reports whether op replicates, path-addressed, to a quorum before
// it applies on a replicated server: a write and a move-in.
// Replicate-before-apply: a reader at the master only ever sees data a
// quorum already holds, so a master crash immediately after the read can
// never roll the write back under a failover — the new master's catch-up
// sync intersects every write quorum and recovers it.
func ships(op vfs.Op) bool {
	return op.Kind == vfs.OpWrite || op.Kind == vfs.OpCreate && op.Data != nil
}

var errDirMove = errors.New("shard: cross-shard directory rename unsupported")

// Plan begins writer's mutation op. It resolves op against the store —
// the node it changes and that node's path, the directories it binds —
// checks the access its kind needs, and returns the plan that clears its
// kind's data and ships it if it ships. The plan keeps op, its Node and
// Path filled in, for the Apply step (Op).
func (c *Core) Plan(writer core.ClientID, op vfs.Op) (Plan, error) {
	if op.Kind == 0 || int(op.Kind) >= len(rules) {
		return Plan{}, fmt.Errorf("%w: %d", vfs.ErrBadOp, op.Kind)
	}
	r, st := rules[op.Kind], c.cfg.Store
	var data [MaxData]vfs.Datum
	var a vfs.Attr
	var err error
	n := 0
	if r.node || r.write || r.owner {
		if op.Node != 0 {
			a, err = st.Stat(op.Node)
		} else {
			a, err = st.Lookup(op.Path)
		}
		switch {
		case err != nil:
		case op.Kind == vfs.OpRemove && op.To != "" && a.IsDir:
			err = errDirMove
		case r.write:
			err = st.CheckAccess(a.ID, string(writer), true)
		case r.owner && a.Owner != string(writer):
			err = vfs.ErrPerm
		}
		if err != nil {
			return Plan{}, err
		}
		if op.Node = a.ID; r.node {
			data[0], n = a.Datum(), 1
		}
	}
	if op.Path == "" && (r.dirs > 0 || ships(op) && c.cfg.Master != nil) {
		if op.Path, err = st.Path(op.Node); err != nil {
			return Plan{}, err
		}
	}
	for _, name := range []string{op.Path, op.To}[:r.dirs] {
		if a, err = st.Lookup(path.Dir(name)); err != nil {
			return Plan{}, err
		}
		if d := (vfs.Datum{Kind: vfs.DirBinding, Node: a.ID}); n == 0 || data[n-1] != d {
			data[n], n = d, n+1
		}
	}
	p := c.plan(writer, data[:n]...)
	p.op = op
	return p, nil
}

// plan begins a mutation by writer that clears data.
func (c *Core) plan(writer core.ClientID, data ...vfs.Datum) Plan {
	if len(data) > MaxData {
		panic("srvcore: a mutation clears at most MaxData data")
	}
	p := Plan{c: c, writer: writer, n: len(data)}
	copy(p.data[:], data)
	// Insertion sort into the global datum order: n is at most MaxData.
	for i := 1; i < p.n; i++ {
		for j := i; j > 0 && datumLess(p.data[j], p.data[j-1]); j-- {
			p.data[j], p.data[j-1] = p.data[j-1], p.data[j]
		}
	}
	return p
}

// ship makes a plan of data alone ship op.
func (p *Plan) ship(op vfs.Op) { p.op = op }

// Op is the plan's mutation, resolved: what its Apply step applies.
func (p *Plan) Op() vfs.Op { return p.op }

// Data is the plan's data in clearance order.
func (p *Plan) Data() []vfs.Datum { return p.data[:p.n] }

// open checks the serving gate: a replicated server only steps a plan
// while it is the serving master, in the reign the plan began in. It
// also reports when that reign's recovery window ends.
func (p *Plan) open(now time.Time) (ok bool, recoverUntil time.Time) {
	c := p.c
	if c.cfg.Master == nil {
		return true, time.Time{}
	}
	serving, reign, until := c.gate()
	if p.reign == 0 {
		p.reign = reign
	}
	return serving && reign == p.reign && c.cfg.Master(now), until
}

// datumLess is the global datum order (core.SortData's).
func datumLess(a, b vfs.Datum) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Node < b.Node
}

// next reports what the plan needs at now.
func (p *Plan) next(now time.Time) Step {
	c := p.c
	switch p.stage {
	case done:
		return Step{Kind: Done}
	case failed:
		return Step{Kind: Fail, Err: p.err}
	case applying:
		// The store changed (or may have): only Applied ends the plan.
		return p.apply()
	}
	// The gate is re-checked on every step, and so immediately before
	// Ship and Apply: a master deposed while a mutation waited must not
	// ship it or change a store it may serve again after a re-promotion.
	ok, until := p.open(now)
	if !ok {
		return p.fail(ErrNotMaster, now)
	}
	if p.stage == atGate {
		if now.Before(until) {
			return Step{Kind: Wait, Until: until, Cause: RecoveryWindow}
		}
		p.stage = atHorizon
		if c.Classes != nil {
			// Drop-on-write (§4.3): installed data leave the class now.
			// Re-granting per-file leases on them during the wait is fine
			// — those go through the normal approval path below.
			var dropped []vfs.Datum
			var image []byte
			p.horizon, dropped, image = c.Classes.demote(p.Data(), now)
			p.demoted = true
			if len(dropped) > 0 {
				return Step{Kind: Demoted, Dropped: dropped,
					Path: ClassStatePath, Seq: c.noteClassImage(image), Data: image}
			}
		}
	}
	if p.stage == atHorizon {
		if now.Before(p.horizon) {
			return Step{Kind: Wait, Until: p.horizon, Cause: ClassHorizon}
		}
		p.stage = atClearance
	}
	for p.stage == atClearance {
		if p.nheld == p.n {
			p.stage = atShip
			break
		}
		st := Step{Kind: Approval, Datum: p.data[p.nheld]}
		if p.cur == 0 {
			// Held submission: the queue entry blocks new grants on the
			// datum until the apply completes, even when no lease
			// conflicts right now.
			disp := c.lm.SubmitWriteHeld(p.writer, st.Datum, now)
			p.cur, st.Holders, st.Until = disp.WriteID, disp.NeedApproval, disp.Deadline
		}
		if !c.lm.WriteReady(p.cur, now) {
			st.WriteID = p.cur
			return st
		}
		p.held[p.nheld], p.cur = p.cur, 0
		p.nheld++
	}
	switch p.stage {
	case atShip:
		if ships(p.op) && c.cfg.Master != nil {
			p.seq = c.nextSeq(p.op.Path)
			p.bytes = encodeOp(p.op)
			p.stage = shipping
			return p.shipStep()
		}
		p.stage = applying
	case shipping:
		return p.shipStep()
	case atApply:
		p.stage = applying
	}
	return p.apply()
}

func (p *Plan) shipStep() Step {
	return Step{Kind: Ship, Path: p.op.Path, Seq: p.seq, Data: p.bytes}
}

func (p *Plan) apply() Step {
	st := Step{Kind: Apply, Datum: p.data[0]}
	if p.n > 0 {
		st.WriteID = p.held[p.n-1]
	}
	return st
}

// shipped reports the Ship step's outcome: nil only once a quorum of
// replicas (counting this one) holds the write.
func (p *Plan) shipped(err error, now time.Time) {
	if p.stage != shipping {
		return
	}
	if err != nil {
		p.fail(err, now)
		return
	}
	p.stage = atApply
}

// Exposed reports whether the plan has handed out a Ship step: its bytes
// may be on another replica, where a later promotion's merge can serve
// them, so its failure from then on does not mean nothing happened.
func (p *Plan) Exposed() bool { return p.seq != 0 }

// applied reports the Apply step's outcome and releases the plan's held
// entries; the next write queued on each datum may then proceed.
func (p *Plan) applied(err error, now time.Time) {
	if p.stage != applying {
		return
	}
	for _, id := range p.held[:p.nheld] {
		p.c.lm.WriteApplied(id, now)
	}
	p.freed = p.freed || p.nheld > 0
	p.nheld = 0
	p.written(now)
	if p.err = err; err != nil {
		p.stage = failed
		return
	}
	if p.seq != 0 {
		p.c.shippedApplied(p.op.Path, p.seq)
	}
	p.stage = done
}

// abort fails a plan its driver gives up on (a deferral timeout,
// shutdown). It is a no-op once the plan has reached Apply or ended.
func (p *Plan) abort(err error, now time.Time) {
	if p.stage < applying {
		p.fail(err, now)
	}
}

// fail cancels whatever the plan holds and ends it.
func (p *Plan) fail(err error, now time.Time) Step {
	for _, id := range p.held[:p.nheld] {
		p.c.lm.CancelWrite(id, now)
	}
	if p.cur != 0 {
		p.c.lm.CancelWrite(p.cur, now)
	}
	p.freed = p.freed || p.nheld > 0 || p.cur != 0
	p.nheld, p.cur = 0, 0
	p.written(now)
	p.stage, p.err = failed, err
	return Step{Kind: Fail, Err: err}
}

// written lets the plan's data back into the class's reach, once.
func (p *Plan) written(now time.Time) {
	if p.demoted {
		p.demoted = false
		p.c.Classes.written(p.Data(), now)
	}
}
