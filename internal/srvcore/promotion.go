package srvcore

import "time"

// promotionPause is how long a promotion waits after a failed quorum
// round before it tries the round again.
const promotionPause = 100 * time.Millisecond

// A Promotion takes a freshly elected master from its catch-up sync to
// serving: it merges the sync, ships each file the merge left unsettled
// to a quorum, one at a time in path order, replicates the term ceiling
// to a quorum (Raise), then raises this replica's own floor to it and
// opens the §2 recovery window and the serving gate (Done). Both shells
// perform its steps. A failed round is tried again after promotionPause
// while this replica is master, a settle ship under a fresh sequence: a
// follower that applied the failed attempt and lost only its ack drops
// the same sequence as stale. Once the Master hook, asked when a round
// fails and when its pause ends, says mastership lapsed, the promotion
// fails and the gate stays closed. Not safe for concurrent use.
type Promotion struct {
	c              *Core
	floor, ceiling time.Duration
	unsettled      []ReplFile // unsettled[0] ships next
	raised         bool
	step           Step // handed out last
}

// Promotion merges the catch-up sync of a quorum (files combined as
// replica.CombineSync does; floor their largest term floor, which this
// replica's own joins) and returns the promotion to ceiling, the longest
// term this master grants, with its first step.
func (c *Core) Promotion(files []ReplFile, floor, ceiling time.Duration, now time.Time) (*Promotion, Step) {
	p := &Promotion{c: c, floor: max(floor, c.TermFloor()), ceiling: ceiling}
	p.unsettled = c.Merge(files)
	return p, p.next(now)
}

// Report reports how the last step went (a Ship or a Raise: nil once a
// quorum holds it; a Wait: its Until has passed) and returns the next
// step. After Done or Fail it changes nothing.
func (p *Promotion) Report(err error, now time.Time) Step {
	st := p.step
	switch {
	case st.Kind == Done || st.Kind == Fail || st.Kind == Wait && now.Before(st.Until):
		return st
	case (st.Kind == Wait || err != nil) && p.c.cfg.Master != nil && !p.c.cfg.Master(now):
		p.step = Step{Kind: Fail, Err: ErrNotMaster}
		return p.step
	case st.Kind == Wait: // the pause is over
	case err != nil:
		if st.Kind == Ship {
			p.unsettled[0].Seq = p.c.nextSeq(st.Path)
		}
		p.step = Step{Kind: Wait, Until: now.Add(promotionPause)}
		return p.step
	case st.Kind == Ship:
		p.c.Settled(p.unsettled[0])
		p.unsettled = p.unsettled[1:]
	default:
		p.raised = true
	}
	return p.next(now)
}

func (p *Promotion) next(now time.Time) Step {
	switch {
	case len(p.unsettled) > 0:
		f := p.unsettled[0]
		p.step = Step{Kind: Ship, Path: f.Path, Seq: f.Seq, Data: f.Data}
	case !p.raised:
		p.step = Step{Kind: Raise, Term: p.ceiling}
	default:
		p.c.RaiseTerm(p.ceiling)
		window := p.c.Promote(p.floor, now)
		p.step = Step{Kind: Done, Until: now.Add(window), Term: window}
	}
	return p.step
}
