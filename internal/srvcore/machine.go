package srvcore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/vfs"
)

// A Machine is the one driver of Plan; the TCP server and the model
// checker are shells that perform what it hands them. A plan is the
// shell's while it holds a step to perform (Demoted, Ship, Apply). At a
// Wait or an Approval the shell parks it: it is then a record in the
// machine's table, indexed by the held write it waits on and by its wake
// instant. An approval, a release, another plan's end,
// or a wake instant passing (Tick) steps exactly the parked plans the
// lease manager reports ready, or whose wait ran out, to a fixpoint, and
// hands each back at the step it reached. A plan that never waits never
// enters the table, and takes no lock of the machine's.
//
// The machine owns a deferral's write.defer span, its approve.push span
// per holder asked, and the write-defer, approve-request, write-apply,
// expire, write-timeout and class-demote events. It is safe for
// concurrent use.
type Machine struct {
	c       *Core
	timeout time.Duration
	tracer  *tracing.Tracer
	obs     *obs.Observer
	node    string

	mu      sync.Mutex
	parked  []*Plan                // each at its index pi
	waiting map[core.WriteID]*Plan // those parked on an Approval, by held write
	parks   uint64                 // numbers parks: equal instants wake in park order
	closed  error                  // once set, every plan parked fails with it
}

// NewMachine returns a machine driving c's plans. A plan parked on one
// approval longer than writeTimeout (zero: no bound) fails. node names
// this server on the spans the machine opens.
func NewMachine(c *Core, writeTimeout time.Duration, tracer *tracing.Tracer, o *obs.Observer, node string) *Machine {
	return &Machine{c: c, timeout: writeTimeout, tracer: tracer, obs: o, node: node, waiting: make(map[core.WriteID]*Plan)}
}

// Effects is what one input hands the shell. Step is the next step of the
// plan the input was about, which the shell holds: perform and report it,
// Park it at a Wait or an Approval, answer a Done or a Fail. Parked are
// steps of parked plans, each with its Owner: at a Wait or an Approval the
// plan parked (ask an Approval's Holders); at any other it is the shell's
// again. After Parked steps, and after a Tick, the shell re-arms its one
// timer at NextWake.
type Effects struct {
	Step   Step
	Parked []Step
}

var errWriteTimeout = errors.New("server: write timed out awaiting lease clearance")

// Begin starts p, its spans under tc, and returns its first step.
func (m *Machine) Begin(p *Plan, tc tracing.Context, now time.Time) Effects {
	p.tc, p.start = tc, now
	return m.Next(p, now)
}

// Next returns the next step of p, which the shell holds.
func (m *Machine) Next(p *Plan, now time.Time) (e Effects) {
	if e.Step = m.next(p, now); p.freed {
		p.freed = false
		m.readied(p.Data(), now, &e) // what queued behind p's held entries
	}
	return e
}

// Report reports how p's Ship step (nil: a quorum holds the op) or Apply
// step (which releases its held entries) went, and returns its next step.
func (m *Machine) Report(p *Plan, err error, now time.Time) Effects {
	p.shipped(err, now)
	p.applied(err, now)
	return m.Next(p, now)
}

// Park hands p, at the Wait or Approval step st, to the machine; owner is
// the shell's record of it. An approval or expiry that came before found
// nobody to step, so Park checks readiness itself.
func (m *Machine) Park(p *Plan, owner any, st Step, now time.Time) (e Effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.owner = owner; m.closed != nil {
		p.abort(m.closed, now)
		m.handBack(p, m.next(p, now), now, &e)
		return e
	}
	m.park(p, st, now, &e)
	if st.Kind == Approval && m.c.lm.WriteReady(p.cur, now) {
		m.resume(p, now, &e)
	}
	return e
}

// Approve records holder's approval of write id and steps what it readied.
func (m *Machine) Approve(holder core.ClientID, id core.WriteID, now time.Time) (ready bool, e Effects) {
	if ready = m.c.lm.Approve(holder, id, now); ready || m.tracer.Enabled() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if p := m.waiting[id]; p != nil {
			p.endPush(holder, "approve")
		}
		if ready {
			m.wake(now, m.c.lm.ShardForWrite(id), false, &e)
		}
	}
	return ready, e
}

// Release drops holder's leases on data and steps what that readied.
func (m *Machine) Release(holder core.ClientID, data []vfs.Datum, now time.Time) (e Effects) {
	m.c.lm.Release(holder, data, now)
	m.readied(data, now, &e)
	return e
}

// Tick steps the parked plans whose wait ran out by now: a Wait past its
// instant, a write its holders' leases no longer block, a write parked
// past the write timeout, which fails.
func (m *Machine) Tick(now time.Time) (e Effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var due []*Plan
	for _, p := range m.parked {
		if w := p.wakeAt(); !w.IsZero() && !w.After(now) {
			due = append(due, p)
		}
	}
	sortParks(due)
	for _, p := range due {
		switch {
		case p.park == 0 || p.wakeAt().After(now): // stepped by an earlier one's end
		case p.waitID == 0:
			m.resume(p, now, &e)
		case !p.giveUp.IsZero() && !now.Before(p.giveUp) && !m.c.lm.WriteReady(p.cur, now):
			d := p.data[p.nheld]
			if m.obs.Enabled() {
				m.obs.Record(obs.Event{Type: obs.EvWriteTimeout, Client: string(p.writer), Datum: d,
					Shard: m.c.lm.ShardFor(d), WriteID: uint64(p.cur), Wait: now.Sub(p.start)})
			}
			p.deferNote = "timeout"
			p.abort(fmt.Errorf("%w on %v", errWriteTimeout, d), now)
			m.resume(p, now, &e)
		default:
			// Its leases ran out: ReadyWrites below steps it, unless it is
			// queued behind another write, whose end will.
			p.until = time.Time{}
		}
	}
	m.wake(now, -1, true, &e)
	return e
}

// Demote closes c's serving gate and fails every parked plan.
func (m *Machine) Demote(now time.Time) Effects {
	m.c.Demote()
	return m.sweep(nil, now)
}

// Close fails every parked plan, and every plan parked later, with err.
func (m *Machine) Close(err error, now time.Time) Effects {
	return m.sweep(err, now)
}

// NextWake is when the machine next wants Tick (zero: never).
func (m *Machine) NextWake() (t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.parked {
		if w := p.wakeAt(); !w.IsZero() && (t.IsZero() || w.Before(t)) {
			t = w
		}
	}
	return t
}

// sweep steps every parked plan, aborted with err if set.
func (m *Machine) sweep(err error, now time.Time) (e Effects) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.closed = err
	}
	all := append([]*Plan(nil), m.parked...)
	sortParks(all)
	for _, p := range all {
		if p.park == 0 {
			continue // handed back by an earlier one's end
		}
		if err != nil {
			p.abort(err, now)
		}
		m.resume(p, now, &e)
	}
	return e
}

// next is p.next, recording the class-demote and write-apply events.
func (m *Machine) next(p *Plan, now time.Time) Step {
	st := p.next(now)
	if !m.obs.Enabled() {
		return st
	}
	for _, d := range st.Dropped {
		m.obs.Record(obs.Event{Type: obs.EvClassDemote, Datum: d, Shard: m.c.lm.ShardFor(d)})
	}
	if st.Kind == Apply {
		// Wait is the whole clearance: the paper's formula-2 added delay as
		// the writer sees it.
		m.obs.Record(obs.Event{Type: obs.EvWriteApply, Client: string(p.writer), Datum: st.Datum,
			Shard: m.c.lm.ShardFor(st.Datum), WriteID: uint64(st.WriteID), Wait: now.Sub(p.start)})
	}
	return st
}

// readied steps the parked plans the lease manager reports ready on
// data's shards; it takes m.mu only if there are any.
func (m *Machine) readied(data []vfs.Datum, now time.Time, e *Effects) {
	for _, d := range data {
		if shard := m.c.lm.ShardFor(d); len(m.c.lm.ReadyWritesShard(shard, now)) > 0 {
			m.mu.Lock()
			m.wake(now, shard, false, e)
			m.mu.Unlock()
		}
	}
}

// wake steps the parked plans the lease manager reports ready in shard
// (-1: all), in WriteID order, to a fixpoint. expiry marks the passage of
// time releasing them. Callers hold m.mu.
func (m *Machine) wake(now time.Time, shard int, expiry bool, e *Effects) {
	for again := true; again; {
		again = false
		var ready []core.WriteID
		if shard < 0 {
			ready = m.c.lm.ReadyWrites(now)
		} else {
			ready = m.c.lm.ReadyWritesShard(shard, now)
		}
		for _, id := range ready {
			if p := m.waiting[id]; p != nil {
				if expiry && m.obs.Enabled() {
					m.obs.Record(obs.Event{Type: obs.EvExpire, WriteID: uint64(id), Shard: m.c.lm.ShardForWrite(id)})
				}
				m.resume(p, now, e)
				again = true
				break // the snapshot is stale after a step
			}
		}
	}
}

// resume steps parked p: it parks again or is handed back. Callers hold
// m.mu.
func (m *Machine) resume(p *Plan, now time.Time, e *Effects) {
	st := m.next(p, now)
	if st.Kind == Approval && st.WriteID == p.waitID {
		return // still waiting on the same write
	}
	m.unpark(p, st)
	if st.Kind == Wait || st.Kind == Approval {
		m.park(p, st, now, e)
	} else {
		m.handBack(p, st, now, e)
	}
}

// handBack hands p back to its shell at st, and steps what its end
// readied. Callers hold m.mu.
func (m *Machine) handBack(p *Plan, st Step, now time.Time, e *Effects) {
	st.Owner = p.owner
	if e.Parked = append(e.Parked, st); p.freed {
		p.freed = false
		m.wake(now, -1, false, e)
	}
}

// park enters p, at st, in the table; a first wait on a held write opens
// its deferral. Callers hold m.mu.
func (m *Machine) park(p *Plan, st Step, now time.Time, e *Effects) {
	m.parks++
	p.park, p.pi, p.until, p.giveUp = m.parks, len(m.parked), st.Until, time.Time{}
	m.parked = append(m.parked, p)
	if st.Kind == Approval {
		m.openDefer(p, st)
		if !st.Until.IsZero() {
			p.until = st.Until.Add(time.Nanosecond) // a lease is valid through its expiry
		}
		if m.timeout > 0 {
			p.giveUp = now.Add(m.timeout)
		}
	}
	st.Owner = p.owner
	e.Parked = append(e.Parked, st)
}

// unpark takes p out of the table as it leaves its wait for st, ending a
// deferral's spans: a push still open belongs to a holder that never
// approved, so its lease ran out (§2). Callers hold m.mu.
func (m *Machine) unpark(p *Plan, st Step) {
	last := m.parked[len(m.parked)-1]
	m.parked[p.pi], last.pi = last, p.pi
	m.parked, p.park = m.parked[:len(m.parked)-1], 0
	if p.waitID == 0 {
		return
	}
	delete(m.waiting, p.waitID)
	pushNote, note := "expire", "cleared"
	if st.Kind == Fail {
		if note = p.deferNote; note == "" {
			note = "cancel"
		}
		pushNote = note
	}
	for _, ps := range p.pushes {
		ps.sp.EndNote(pushNote)
	}
	p.deferSp.EndNote(note)
	p.waitID, p.pushes, p.deferSp, p.deferNote = 0, nil, tracing.Span{}, ""
}

// openDefer opens a held write's deferral: its event and span, and a push
// span and event per holder asked. Callers hold m.mu.
func (m *Machine) openDefer(p *Plan, st Step) {
	p.waitID, m.waiting[st.WriteID] = st.WriteID, p
	shard := m.c.lm.ShardForWrite(st.WriteID)
	if m.obs.Enabled() {
		m.obs.Record(obs.Event{Type: obs.EvWriteDefer, Client: string(p.writer), Datum: st.Datum, Shard: shard, WriteID: uint64(st.WriteID)})
	}
	p.deferSp = m.tracer.StartChildNode(m.node, p.tc, "write.defer")
	for _, h := range st.Holders {
		if p.deferSp.Recording() {
			sp := m.tracer.StartChildNode(m.node, p.deferSp.Context(), "approve.push")
			sp.Annotate("holder=" + string(h))
			p.pushes = append(p.pushes, push{h, sp})
		}
		if m.obs.Enabled() {
			m.obs.Record(obs.Event{Type: obs.EvApproveRequest, Client: string(h), Datum: st.Datum, Shard: shard, WriteID: uint64(st.WriteID)})
		}
	}
	p.deferSp.SetFanout(len(st.Holders))
}

// push is one asked holder's open approval-push span.
type push struct {
	holder core.ClientID
	sp     tracing.Span
}

func (p *Plan) endPush(holder core.ClientID, note string) {
	for i, ps := range p.pushes {
		if ps.holder == holder {
			ps.sp.EndNote(note)
			p.pushes = append(p.pushes[:i], p.pushes[i+1:]...)
			return
		}
	}
}

// wakeAt is when a parked plan's wait may have run out (zero: only an
// approval or another's end can tell): its Wait instant or its blocking
// leases' expiry, or sooner its give-up instant.
func (p *Plan) wakeAt() time.Time {
	if p.until.IsZero() || !p.giveUp.IsZero() && p.giveUp.Before(p.until) {
		return p.giveUp
	}
	return p.until
}

// sortParks orders plans by wake instant, then park order.
func sortParks(ps []*Plan) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].wakeAt(), ps[j].wakeAt()
		return a.Before(b) || a.Equal(b) && ps[i].park < ps[j].park
	})
}
