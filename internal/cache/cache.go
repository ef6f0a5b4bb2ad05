// Package cache is the client's cache rules as one sans-IO state
// machine: §2's "a cached copy may be used only while the lease on it is
// valid", made structural. Every datum has at most one record, and the
// record holds the lease together with what it covers — a file's
// contents, or a directory's edges — so no copy can outlive its lease.
//
// Like core.Holder and replica.Machine the Core holds no mutex,
// goroutine, socket or clock: now, and the stamp of the request a reply
// answers, are arguments. internal/client drives it over TCP under one
// mutex; internal/check drives the same type from its simulated fabric.
//
// Three rules decide what a reply may leave behind (DESIGN.md §5.3). The
// fence: every event that can make an in-flight reply stale bumps the
// epoch, a reply stamped under an older one is filed nowhere, and a
// record is only ever deleted together with a bump. The version guard:
// a reply older than its record is not filed over it, and a record that
// loses its lease without a bump stays behind, empty, as a version
// floor. Same version or start over: a grant at the recorded version
// revalidates the copy, at any other it empties the record first; own
// mutations move a record on by exactly one version, or delete it.
package cache

import (
	"strings"
	"time"

	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// Entry is what a cached directory edge names.
type Entry struct {
	ID    vfs.NodeID
	IsDir bool
}

// Datum is the entry's primary datum, whose record keeps its attributes.
func (e Entry) Datum() vfs.Datum {
	if e.IsDir {
		return binding(e.ID)
	}
	return vfs.Datum{Kind: vfs.FileData, Node: e.ID}
}

func binding(id vfs.NodeID) vfs.Datum { return vfs.Datum{Kind: vfs.DirBinding, Node: id} }

// Req is the stamp of a request as it was sent: the fence epoch then,
// and the local instant that conservatively anchors any term the reply
// grants (§3.1: the server cannot have granted before the request left).
type Req struct {
	Epoch uint64
	At    time.Time
}

// record is everything the cache knows about one datum. While held is
// false nothing is read through it: it is a version floor, and keeps a
// node's attributes.
type record struct {
	lease core.Lease
	held  bool
	// used: the lease served a hit since it was last renewed, and the
	// record is listed in Core.used.
	used bool
	// refilled: the contents came back on a refill (Reply.Refill) and have
	// served no hit since.
	refilled bool
	// filed is the filing (one reply) whose grant last stood here; edges
	// and contents are only filed under a grant their own reply carried.
	filed uint64

	data []byte // FileData: contents at lease.Version; nil: none
	// DirBinding: edges learned at lease.Version, complete when listed;
	// gen names this incarnation of them.
	ents   map[string]Entry
	listed bool
	gen    uint64

	// attr is the node's attributes, which belong to its parent's binding
	// (the root's to its own): usable while attrUnder is that directory
	// record's gen, so they die with the parent's edges without anyone
	// walking them. Zero: none.
	attr      vfs.Attr
	attrUnder uint64
}

// Core is one client's cache. Not safe for concurrent use.
type Core struct {
	cfg    core.HolderConfig
	recs   map[vfs.Datum]*record
	epoch  uint64
	gens   uint64
	filing uint64
	// used lists the records marked used, each once, in marking order
	// (an entry whose record was since replaced is stale); renewDue is no
	// later than the earliest instant one of them comes due.
	used     []usedRec
	renewDue time.Time
	// The installed class (§4.3) as last fetched: its generation (zero:
	// none; the server bumps it on every membership change), its members
	// in wire order, and whether to refetch it.
	classGen     uint64
	classMembers []vfs.Datum
	classStale   bool
}

// New returns an empty cache that deducts allowance (ε) from every term.
func New(allowance time.Duration) *Core {
	return &Core{cfg: core.HolderConfig{Allowance: allowance}, recs: make(map[vfs.Datum]*record)}
}

// Begin stamps a request about to be sent at now.
func (c *Core) Begin(now time.Time) Req { return Req{Epoch: c.epoch, At: now} }

func (c *Core) add(d vfs.Datum) *record {
	c.gens++
	rec := &record{gen: c.gens}
	c.recs[d] = rec
	return rec
}

// empty discards the record's copy, keeping lease and version — and the
// node's attributes, which are not this lease's to take.
func (c *Core) empty(rec *record) {
	c.gens++
	*rec = record{lease: rec.lease, held: rec.held, used: rec.used, gen: c.gens, attr: rec.attr, attrUnder: rec.attrUnder}
}

// valid returns d's record if a copy may be read through it at now.
func (c *Core) valid(d vfs.Datum, now time.Time) *record {
	if rec := c.recs[d]; rec != nil && rec.held && !core.Expired(rec.lease.Expiry, now) {
		return rec
	}
	return nil
}

// usedRec is one entry of Core.used.
type usedRec struct {
	d   vfs.Datum
	rec *record
}

// renewAt is when a lease is past half its granted term: from then on a
// lease that serves hits rides the client's next request (§4).
func renewAt(l core.Lease) time.Time { return l.Expiry.Add(-l.Term / 2) }

// use marks d's record rec as having served a hit. A lease that never
// expires needs no renewal.
func (c *Core) use(d vfs.Datum, rec *record) {
	if rec.used || rec.lease.Expiry.IsZero() {
		return
	}
	rec.used = true
	if due := renewAt(rec.lease); len(c.used) == 0 || due.Before(c.renewDue) {
		c.renewDue = due
	}
	c.used = append(c.used, usedRec{d, rec})
}

// AppendRenewals appends to dst the leases to renew on the request about
// to be sent — every record that served a hit since its last renewal and
// is now past half its granted term — and clears their marks. A lease
// nobody used is left to lapse. With nothing due it reads no record.
func (c *Core) AppendRenewals(dst []vfs.Datum, now time.Time) []vfs.Datum {
	if len(c.used) == 0 || now.Before(c.renewDue) {
		return dst
	}
	keep, next := c.used[:0], time.Time{}
	for _, u := range c.used {
		if c.recs[u.d] != u.rec {
			continue // replaced: the new record carries its own mark
		}
		due := renewAt(u.rec.lease)
		switch {
		case !u.rec.held:
			u.rec.used = false
		case now.Before(due):
			keep = append(keep, u)
			if len(keep) == 1 || due.Before(next) {
				next = due
			}
		default:
			u.rec.used = false
			dst = append(dst, u.d)
		}
	}
	clear(c.used[len(keep):])
	c.used, c.renewDue = keep, next
	return dst
}

// grant applies one wire grant to its record and returns the record if
// the grant stands: leased, with term left, and not older than recorded.
func (c *Core) grant(g proto.GrantWire, q Req, now time.Time) *record {
	rec := c.recs[g.Datum]
	if rec != nil && g.Version < rec.lease.Version {
		return nil
	}
	expiry, ok := c.cfg.Effective(g.Term, q.At, now)
	ok = ok && g.Leased
	switch {
	case rec == nil && !ok:
		return nil
	case rec == nil:
		rec = c.add(g.Datum)
	case !ok || !rec.held || rec.lease.Version != g.Version:
		c.empty(rec)
	}
	if !ok {
		// Good for the access that fetched it, not cached: the floor stays.
		rec.held, rec.lease.Version = false, g.Version
		return nil
	}
	if rec.held {
		rec.lease.Extend(expiry, g.Version)
	} else {
		rec.lease.Expiry, rec.lease.Version, rec.held = expiry, g.Version, true
	}
	rec.lease.Term = g.Term
	rec.filed = c.filing
	return rec
}

// granted returns d's record if the reply being filed leased it.
func (c *Core) granted(d vfs.Datum) *record {
	if rec := c.recs[d]; rec != nil && rec.filed == c.filing {
		return rec
	}
	return nil
}

// nextName splits the first component off a relative path.
func nextName(rest string) (name, tail string) {
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// walk resolves path edge by edge, each under its own directory's valid
// lease, and marks each directory it reads used. under is the gen of the
// directory whose binding covers the named node's attributes: its
// parent's, or for "/" the root's own; zero when that lease is not valid.
func (c *Core) walk(path string, now time.Time) (ent Entry, under uint64, ok bool) {
	ent = Entry{ID: vfs.RootID, IsDir: true}
	if path == "" || path[0] != '/' {
		return ent, 0, false
	}
	if path == "/" {
		if root := c.valid(ent.Datum(), now); root != nil {
			c.use(ent.Datum(), root)
			under = root.gen
		}
		return ent, under, true
	}
	for rest := path[1:]; rest != ""; {
		dir := c.valid(ent.Datum(), now)
		if dir == nil {
			return ent, 0, false
		}
		c.use(ent.Datum(), dir)
		var name string
		name, rest = nextName(rest)
		if ent, ok = dir.ents[name]; !ok {
			return ent, 0, false
		}
		under = dir.gen
	}
	return ent, under, true
}

// Resolve reports the node path names, every directory on the way leased.
func (c *Core) Resolve(path string, now time.Time) (Entry, bool) {
	ent, _, ok := c.walk(path, now)
	return ent, ok
}

// Attr is Resolve returning the named node's cached attributes.
func (c *Core) Attr(path string, now time.Time) (vfs.Attr, bool) {
	ent, under, ok := c.walk(path, now)
	if rec := c.recs[ent.Datum()]; ok && under != 0 && rec != nil && rec.attrUnder == under {
		return rec.attr, true
	}
	return vfs.Attr{}, false
}

// Contents returns file datum d's cached contents if its lease is valid,
// marking the lease used. The slice is the cache's own: copy before
// handing out.
func (c *Core) Contents(d vfs.Datum, now time.Time) ([]byte, bool) {
	if rec := c.valid(d, now); rec != nil && rec.data != nil {
		c.use(d, rec)
		rec.refilled = false
		return rec.data, true
	}
	return nil, false
}

// Listing returns directory id's entries, unsorted, if complete and leased.
func (c *Core) Listing(id vfs.NodeID, now time.Time) ([]vfs.DirEntry, bool) {
	dir := c.valid(binding(id), now)
	if dir == nil || !dir.listed {
		return nil, false
	}
	c.use(binding(id), dir)
	out := make([]vfs.DirEntry, 0, len(dir.ents))
	for name, ent := range dir.ents {
		out = append(out, vfs.DirEntry{Name: name, ID: ent.ID, IsDir: ent.IsDir})
	}
	return out, true
}

// setAttr files attr, learned under the directory record incarnation
// under.
func (c *Core) setAttr(attr vfs.Attr, under uint64) {
	d := Entry{ID: attr.ID, IsDir: attr.IsDir}.Datum()
	rec := c.recs[d]
	if rec == nil {
		rec = c.add(d)
	}
	rec.attr, rec.attrUnder = attr, under
}

// touch updates cached attributes from a reply that names no parent (a
// read by node, a listing, an own write) with what the node's own datum
// covers; the rest belongs to the parent's binding, and this reply may
// be older than the one that filed it.
func (c *Core) touch(d vfs.Datum, attr vfs.Attr) {
	if rec := c.recs[d]; rec != nil && rec.attrUnder != 0 && attr.Version > rec.attr.Version {
		rec.attr.Version, rec.attr.Size, rec.attr.ModTime = attr.Version, attr.Size, attr.ModTime
	}
}

// Reply is what one server contact returned about a node: attributes,
// grants (every directory walked, and the node's own datum if fetched)
// and, as far as the request went, the chain of edges Path resolved
// through, the file's contents, or the directory's complete edge set.
// The core retains Data and Ents. Refill marks a file that came back on
// another request's reply after this cache approved a write on it: until
// it serves a hit, a callback on it asks for no refill (Surrender).
type Reply struct {
	Path   string
	Attr   vfs.Attr
	Chain  []vfs.Edge
	Grants []proto.GrantWire
	Data   []byte
	Ents   map[string]Entry
	Refill bool
}

// File files a lookup, read or listing reply to a request stamped q —
// unless it crossed the fence, or is older than its node's record (a
// read served before this cache's own write, waited on after it). Each
// edge goes under its own directory and the contents or listing under
// the node's own datum, if this reply leased them; an edge whose
// directory came back unleased served its open and is not kept.
func (c *Core) File(q Req, r Reply, now time.Time) bool {
	node := Entry{ID: r.Attr.ID, IsDir: r.Attr.IsDir}.Datum()
	if rec := c.recs[node]; q.Epoch != c.epoch || (rec != nil && r.Attr.Version < rec.lease.Version) {
		return false
	}
	c.filing++
	for _, g := range r.Grants {
		c.grant(g, q, now)
	}
	var under uint64
	if root := c.granted(binding(vfs.RootID)); root != nil && r.Path == "/" {
		under = root.gen // the root's attributes are in its own binding
	}
	rest := strings.TrimPrefix(r.Path, "/")
	for _, e := range r.Chain {
		var name string
		name, rest = nextName(rest)
		under = 0
		if dir := c.granted(binding(e.Dir)); dir != nil {
			if dir.ents == nil {
				dir.ents = make(map[string]Entry)
			}
			dir.ents[name] = Entry{ID: e.Child, IsDir: e.IsDir}
			under = dir.gen
		}
	}
	if under != 0 {
		c.setAttr(r.Attr, under)
	} else {
		c.touch(node, r.Attr) // fetched by node: no edge names the parent
	}
	if rec := c.granted(node); rec != nil {
		if r.Data != nil {
			rec.data, rec.refilled = r.Data, r.Refill
		}
		if r.Ents != nil {
			rec.ents, rec.listed = r.Ents, true
		}
	}
	return true
}

// FileExtension files an extension reply, or the renewal grants that end
// a read or write reply (AppendRenewals), under the stamp of the request
// that carried them. It moves expiries only: a datum that came back
// unleased, or at a version other than the held one (it changed while
// the lease was lapsed), is invalidated instead, and returned for the
// driver's accounting. Across the fence nothing is filed: the grants
// could resurrect a lease an approval surrendered.
func (c *Core) FileExtension(q Req, grants []proto.GrantWire, now time.Time) (invalidated []vfs.Datum) {
	if q.Epoch != c.epoch {
		return nil
	}
	c.filing++
	for _, g := range grants {
		if rec := c.recs[g.Datum]; !g.Leased || (rec != nil && rec.held && rec.lease.Version != g.Version) {
			c.Invalidate(g.Datum)
			invalidated = append(invalidated, g.Datum)
			continue
		}
		c.grant(g, q, now)
	}
	return invalidated
}

// OwnWrite records that this cache's write of data to file datum d
// applied, leaving the file at attr. The server asks a writer for no
// approval, so the lease stands; under it the new contents replace the
// old if the reply passed the fence, and otherwise the old are dropped —
// the write applied all the same. Either way attr.Version is the floor.
func (c *Core) OwnWrite(q Req, d vfs.Datum, attr vfs.Attr, data []byte) {
	rec := c.recs[d]
	if rec == nil {
		rec = c.add(d)
	}
	if attr.Version < rec.lease.Version {
		return // a later write of ours is already recorded
	}
	rec.lease.Version, rec.data = attr.Version, nil
	if q.Epoch == c.epoch && rec.held {
		rec.data = append([]byte{}, data...)
	}
	c.touch(d, attr)
}

// own brings directory id's record in line with this cache's own change
// to it, which the reply reports at version; no callback comes for it
// and the lease is retained. One past the recorded version says the
// cached edges were current up to this change: the record moves on and
// is returned for patching. Anything else (nothing held, a change missed
// while lapsed, two of ours racing) deletes it. Like a callback, the
// change fences fetches in flight. The directory is named by identity:
// its record may outlive an ancestor's.
func (c *Core) own(id vfs.NodeID, version uint64) *record {
	if id == 0 {
		return nil
	}
	c.epoch++
	rec := c.recs[binding(id)]
	if rec == nil || !rec.held || rec.lease.Version+1 != version {
		delete(c.recs, binding(id))
		return nil
	}
	rec.lease.Version = version
	if rec.ents == nil {
		rec.ents = make(map[string]Entry)
	}
	return rec
}

// OwnCreate records this cache's creation of name in directory dir, now
// at version, with the new node's attributes.
func (c *Core) OwnCreate(dir vfs.NodeID, version uint64, name string, attr vfs.Attr) {
	if rec := c.own(dir, version); rec != nil {
		rec.ents[name] = Entry{ID: attr.ID, IsDir: attr.IsDir}
		c.setAttr(attr, rec.gen)
	}
}

// OwnRemove records this cache's removal of name from directory dir.
func (c *Core) OwnRemove(dir vfs.NodeID, version uint64, name string) {
	if rec := c.own(dir, version); rec != nil {
		delete(rec.ents, name)
	}
}

// OwnRename records this cache's rename of from/oldName to to/newName;
// to is 0 when the destination lives on another server.
func (c *Core) OwnRename(from vfs.NodeID, fromV uint64, oldName string, to vfs.NodeID, toV uint64, newName string) {
	var moved Entry
	var have bool
	src := c.own(from, fromV)
	if src != nil {
		moved, have = src.ents[oldName]
		delete(src.ents, oldName)
	}
	dst := src
	if to != from {
		dst = c.own(to, toV)
	}
	switch {
	case dst == nil:
	case have:
		dst.ents[newName] = moved
		c.DropAttr(moved.Datum()) // they carry the old name
	default:
		// Unknown entry: the next lookup refetches it, and the listing is
		// no longer known complete.
		dst.listed = false
	}
}

// Invalidate surrenders the lease on d with its copy and fences fetches
// in flight.
func (c *Core) Invalidate(d vfs.Datum) {
	c.epoch++
	delete(c.recs, d)
}

// Surrender is the leaseholder's half of a write callback (§2): it
// invalidates d and reports whether to ask for the file back at the
// write's version on the next reply — a refill (proto.ApprovalWire).
// Only contents this cache was reading ask: a copy valid at now, fetched
// by a read or having served a hit under its lease. A copy a refill filed
// asks for none until it serves a hit, so a file the cache stopped
// reading costs at most one more callback.
func (c *Core) Surrender(d vfs.Datum, now time.Time) (refill bool) {
	if rec := c.valid(d, now); rec != nil {
		refill = rec.data != nil && !rec.refilled
	}
	c.Invalidate(d)
	return refill
}

// DropAttr forgets d's node's attributes after this cache changed them.
func (c *Core) DropAttr(d vfs.Datum) {
	if rec := c.recs[d]; rec != nil {
		rec.attrUnder = 0
	}
}

// DropBindings deletes every directory's record: a namespace mutation of
// ours failed after it may have applied, and no reply says where.
func (c *Core) DropBindings() {
	c.epoch++
	for d := range c.recs {
		if d.Kind == vfs.DirBinding {
			delete(c.recs, d)
		}
	}
}

// DropAll forgets everything: a resumed session revalidates (§5).
func (c *Core) DropAll() {
	c.epoch++
	c.recs = make(map[vfs.Datum]*record)
	c.used = nil
	c.classGen, c.classMembers, c.classStale = 0, nil, false
}

// Held returns every leased datum (valid or expired), sorted — the
// batch to extend or release (§3.1).
func (c *Core) Held() []vfs.Datum {
	out := make([]vfs.Datum, 0, len(c.recs))
	for d, rec := range c.recs {
		if rec.held {
			out = append(out, d)
		}
	}
	core.SortData(out)
	return out
}

// RenewPlan is one renewal round: what to extend, then how long to sleep.
type RenewPlan struct {
	Due  []vfs.Datum
	Wake time.Duration
}

// PlanRenewal plans one anticipatory-extension round (§4) with renewal
// period base. Due are the leases expired or expiring within the lead,
// base/2, so one missed round still leaves half a period of margin;
// Wake is until the next expiry enters the lead, clamped to [base/8,
// base]. Installed members are planned like the rest: while broadcasts
// arrive they never come due, and if broadcasts stop they drift into
// the window and explicit extension takes over.
func (c *Core) PlanRenewal(now time.Time, base time.Duration) RenewPlan {
	deadline := now.Add(base / 2)
	plan := RenewPlan{Wake: base}
	for _, d := range c.Held() {
		switch expiry := c.recs[d].lease.Expiry; {
		case expiry.IsZero(): // infinite: never renewed
		case !expiry.After(deadline):
			plan.Due = append(plan.Due, d)
		case expiry.Sub(deadline) < plan.Wake:
			plan.Wake = expiry.Sub(deadline)
		}
	}
	floor := base / 8
	if floor <= 0 {
		floor = time.Millisecond
	}
	return RenewPlan{Due: plan.Due, Wake: max(plan.Wake, floor)}
}

// Broadcast applies one periodic installed-class renewal (§4.3): when
// the stamped generation is the held snapshot's, every member under a
// valid lease is extended to sentAt + term − ε. A mismatch means
// membership changed at the server — extending under the old list could
// cover a datum a write just demoted — so nothing is extended, the
// snapshot is marked stale and false returned: refetch it.
func (c *Core) Broadcast(gen uint64, term time.Duration, sentAt, now time.Time) bool {
	if gen != c.classGen || gen == 0 {
		c.classStale = true
		return false
	}
	c.extendMembers(term, sentAt, now)
	return true
}

// Snapshot installs a fetched snapshot (members is retained) and applies
// its coverage like a broadcast.
func (c *Core) Snapshot(gen uint64, term time.Duration, members []vfs.Datum, sentAt, now time.Time) {
	c.classGen, c.classMembers, c.classStale = gen, members, false
	c.extendMembers(term, sentAt, now)
}

// extendMembers prolongs live belief only: the extension is unsolicited,
// and a lapsed member's copy may have been rewritten any number of times
// since (it can leave the class on a write and be re-installed later).
func (c *Core) extendMembers(term time.Duration, sentAt, now time.Time) {
	expiry := c.cfg.Stamped(term, sentAt)
	for _, d := range c.classMembers {
		if rec := c.valid(d, now); rec != nil {
			rec.lease.Extend(expiry, rec.lease.Version)
		}
	}
}

// Class reports the held snapshot: generation (zero = none), member
// count, and whether a refetch is pending.
func (c *Core) Class() (gen uint64, members int, stale bool) {
	return c.classGen, len(c.classMembers), c.classStale
}
