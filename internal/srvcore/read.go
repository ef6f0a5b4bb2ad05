package srvcore

import (
	"slices"
	"time"

	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// This file is the read side both shells drive: the lease every read
// carries (§2), the renewals a request carries (§3.1), and each client's
// refill list; the installed class's read side (§4.3) is in class.go. A
// shell reads the bytes and the version a grant goes out with, sizes its
// reply and carries frames.

// grant grants client a lease on d and records it as et: EvGrant, or
// EvExtend for a renewal a request carries. A write holding clearance on
// d refuses it (Leased false): the datum is served once, not cached. The
// shell fills in the version, read after the grant. Nothing durable runs
// here: no grant outlasts the term ceiling the shell made durable before
// its first.
func (m *Machine) grant(client core.ClientID, d vfs.Datum, et obs.EventType, now time.Time) proto.GrantWire {
	g := m.c.lm.Grant(client, d, now)
	if m.obs.Enabled() {
		m.obs.Record(obs.Event{Type: et, Client: string(client), Datum: d, Shard: m.c.lm.ShardFor(d), Term: g.Term})
	}
	return proto.GrantWire{Datum: d, Term: g.Term, Leased: g.Leased}
}

// GrantRead grants client a lease on d for a read being served, which the
// installed class observes: when d joins it, EvClassPromote is recorded
// and image is the membership to ship to the peers, best effort (changed).
func (m *Machine) GrantRead(client core.ClientID, d vfs.Datum, now time.Time) (g proto.GrantWire, image ReplFile, changed bool) {
	g = m.grant(client, d, obs.EvGrant, now)
	if m.c.Classes == nil {
		return g, image, false
	}
	if image, changed = m.c.observeRead(d, now); changed && m.obs.Enabled() {
		m.obs.Record(obs.Event{Type: obs.EvClassPromote, Client: string(client), Datum: d})
	}
	return g, image, changed
}

// Renew grants client the renewals a request carries, each at the version
// the shell reads after its grant. A datum a write is waiting on comes
// back unleased, and the client drops its copy.
func (m *Machine) Renew(client core.ClientID, data []vfs.Datum, now time.Time, version func(vfs.Datum) uint64) []proto.GrantWire {
	grants := make([]proto.GrantWire, len(data))
	for i, d := range data {
		grants[i] = m.grant(client, d, obs.EvExtend, now)
		grants[i].Version = version(d)
	}
	return grants
}

// Refills is one client's refill list: the files it approved a write on
// while reading them and asked back for (TApprove's refill byte), in the
// order asked, each with when. The next reply to its read or write takes
// them. The zero value is empty; it is not safe for concurrent use.
type Refills struct{ list []refill }

type refill struct {
	d  vfs.Datum
	at time.Time
}

// maxRefills bounds a refill list; an approval past it asks for nothing,
// and the client's next read of that file fetches it.
const maxRefills = 256

// Ask puts d on the list, or restamps it where it stands.
func (r *Refills) Ask(d vfs.Datum, now time.Time) {
	for i := range r.list {
		if r.list[i].d == d {
			r.list[i].at = now
			return
		}
	}
	if len(r.list) < maxRefills {
		r.list = append(r.list, refill{d, now})
	}
}

// Len is how many files the list holds.
func (r *Refills) Len() int { return len(r.list) }

// Admit is a shell's verdict on a refill before its grant.
type Admit uint8

const (
	RefillGrant Admit = iota // grant it, and hand it to fill
	RefillKeep               // not now: it does not fit this reply
	RefillDrop               // never: the client may not read it, or it is not here
)

// Take grants client the files on the list, in order, and hands each one
// granted to fill, which reads it and adds it to the reply. own are the
// data the reply itself carries: their entries go, as does one asked a
// term ago or more (the longest granted), when the lease the write
// recalled has run out. admit rules on each entry left before its grant.
// An entry admit keeps, or whose grant is refused — the write that
// recalled it is still pending — stays for a later reply; every other
// leaves. The class sees no read.
func (r *Refills) Take(m *Machine, client core.ClientID, own []vfs.Datum, now time.Time, admit func(vfs.Datum) Admit, fill func(proto.GrantWire)) {
	if len(r.list) == 0 {
		return
	}
	term := m.c.lm.MaxTermGranted()
	keep := r.list[:0]
	for _, p := range r.list {
		if slices.Contains(own, p.d) || now.Sub(p.at) >= term {
			continue
		}
		switch admit(p.d) {
		case RefillDrop:
			continue
		case RefillGrant:
			if g := m.grant(client, p.d, obs.EvGrant, now); g.Leased {
				fill(g)
				continue
			}
		}
		keep = append(keep, p)
	}
	r.list = keep
}
