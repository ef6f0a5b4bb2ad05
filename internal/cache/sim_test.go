package cache

// A one-client protocol simulation around the Core, shared by the fuzz
// target, the seeded random walk and the pinned regressions. The server
// half is a reference model kept deliberately dumb: the true namespace
// and file contents, the instant up to which it honours this client's
// lease on each datum, and §2's one rule — nobody else's change applies
// to a datum while that lease stands unless the client has been called
// back. The client half drives the Core the way internal/client does,
// except that every reply sits in a queue until the program delivers it,
// in any order (futures are waited on in any order), or never.
//
// After every step the oracle reads everything the Core will serve at
// that instant and requires (a) a lease the server still honours on
// every record the answer was read through, and (b) the answer to be the
// truth — so nothing older than a version filed, acknowledged or called
// back since is ever returned.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"leases/internal/proto"
	"leases/internal/vfs"
)

const (
	simTerm      = 10 * time.Second
	simAllowance = time.Second
)

var simStart = time.Unix(1_000_000, 0)

// simPaths is every name the programs and the oracle use.
var simPaths = []string{"/", "/f", "/g", "/a", "/a/f", "/a/g", "/a/b", "/a/b/f", "/a/b/g", "/a/b/h", "/c", "/c/f", "/c/g"}

type snode struct {
	id      vfs.NodeID
	isDir   bool
	name    string
	owner   int    // bumped by a chmod: a write to the parent's binding
	version uint64 // of the node's own datum
	ents    map[string]vfs.NodeID
	gone    bool
}

func (n *snode) datum() vfs.Datum { return Entry{ID: n.id, IsDir: n.isDir}.Datum() }

func (n *snode) attr() vfs.Attr {
	return vfs.Attr{ID: n.id, Name: n.name, IsDir: n.isDir, Owner: fmt.Sprint("o", n.owner), Version: n.version}
}

func (n *snode) contents() []byte { return []byte(fmt.Sprintf("%d@%d", n.id, n.version)) }

// reply is one answer in flight to the client.
type reply struct {
	kind   string // lookup, read, list, write, create, remove, rename, failed, extend, renew, refill, bcast, snap
	q      Req
	path   string
	attr   vfs.Attr
	chain  []vfs.Edge
	grants []proto.GrantWire
	data   []byte
	ents   map[string]Entry
	datum  vfs.Datum
	// Own namespace mutations: touched directories and versions.
	dir, dir2   vfs.NodeID
	v, v2       uint64
	name, name2 string
	// Class frames.
	gen     uint64
	members []vfs.Datum
	sentAt  time.Time
	// Refills riding a request.
	refills []proto.RefillWire
}

type simWorld struct {
	now   time.Time
	core  *Core
	nodes map[vfs.NodeID]*snode
	next  vfs.NodeID
	// lease is the instant up to which the server honours this client's
	// lease on a datum: a per-client record (cleared by a callback) or
	// the installed class's horizon (cleared by nothing but time).
	lease, horizon map[vfs.Datum]time.Time
	gen            uint64
	members        []vfs.Datum
	pending        []*reply
	// refills are the files the client asked back for when it approved a
	// callback (Surrender), in asking order.
	refills []vfs.Datum
	// unacked counts own changes applied at the server whose replies are
	// not delivered yet: the client legitimately lags behind those.
	unacked map[vfs.Datum]int
	// breakFence files every reply under the current epoch — the harness's
	// own self-test that the oracle can see a missing fence.
	breakFence bool
	trace      []string
}

func newSimWorld() *simWorld {
	w := &simWorld{
		now: simStart, core: New(simAllowance),
		nodes: map[vfs.NodeID]*snode{}, next: vfs.RootID,
		lease: map[vfs.Datum]time.Time{}, horizon: map[vfs.Datum]time.Time{},
		unacked: map[vfs.Datum]int{},
	}
	w.mknode(nil, "/", true)
	for _, p := range []string{"/a", "/a/b", "/c"} {
		w.mk(p, true)
	}
	for _, p := range []string{"/f", "/a/f", "/a/b/f", "/a/b/g", "/c/f"} {
		w.mk(p, false)
	}
	return w
}

func (w *simWorld) mknode(parent *snode, name string, isDir bool) *snode {
	n := &snode{id: w.next, isDir: isDir, name: name, version: 1}
	w.next++
	if isDir {
		n.ents = map[string]vfs.NodeID{}
	}
	w.nodes[n.id] = n
	if parent != nil {
		parent.ents[name] = n.id
	}
	return n
}

func (w *simWorld) mk(path string, isDir bool) *snode {
	parent, _ := w.resolve(dirOf(path))
	return w.mknode(parent, baseOf(path), isDir)
}

func dirOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

func baseOf(p string) string { return p[strings.LastIndexByte(p, '/')+1:] }

// resolve walks the true namespace.
func (w *simWorld) resolve(path string) (*snode, []vfs.Edge) {
	n := w.nodes[vfs.RootID]
	var chain []vfs.Edge
	for rest := strings.TrimPrefix(path, "/"); rest != ""; {
		var name string
		name, rest = nextName(rest)
		id, ok := n.ents[name]
		if !n.isDir || !ok {
			return nil, nil
		}
		child := w.nodes[id]
		chain = append(chain, vfs.Edge{Dir: n.id, Child: id, IsDir: child.isDir, Version: n.version})
		n = child
	}
	return n, chain
}

func (w *simWorld) logf(format string, args ...any) {
	w.trace = append(w.trace, fmt.Sprintf("%6.1fs e%d ", w.now.Sub(simStart).Seconds(), w.core.Begin(w.now).Epoch)+fmt.Sprintf(format, args...))
}

// violation is what the oracle panics with; runProgram recovers it.
type violation string

func (w *simWorld) fail(format string, args ...any) {
	panic(violation(fmt.Sprintf("%s\ntrace:\n  %s", fmt.Sprintf(format, args...), strings.Join(w.trace, "\n  "))))
}

// honoured reports whether the server still honours a lease of this
// client's on d.
func (w *simWorld) honoured(d vfs.Datum) bool {
	return !w.now.After(w.lease[d]) || !w.now.After(w.horizon[d])
}

// grant is the server leasing d to the client: mode 1 refuses (a write
// is waiting), mode 2 grants a term ε eats whole.
func (w *simWorld) grant(d vfs.Datum, mode byte) proto.GrantWire {
	n := w.nodes[d.Node]
	g := proto.GrantWire{Datum: d, Version: n.version, Term: simTerm, Leased: true}
	switch mode {
	case 1:
		g.Term, g.Leased = 0, false
	case 2:
		g.Term = simAllowance
	}
	if g.Leased && w.now.Add(g.Term).After(w.lease[d]) {
		w.lease[d] = w.now.Add(g.Term)
	}
	return g
}

func (w *simWorld) send(r *reply) {
	r.q = w.core.Begin(w.now)
	w.pending = append(w.pending, r)
}

// served answers a path resolution as serverConn.resolve does: a lease
// on every directory walked, the root's own for "/"; mode applies to the
// last of them.
func (w *simWorld) served(r *reply, n *snode, chain []vfs.Edge, mode byte) {
	r.attr, r.chain = n.attr(), chain
	for i, e := range chain {
		m := byte(0)
		if i == len(chain)-1 {
			m = mode
		}
		r.grants = append(r.grants, w.grant(binding(e.Dir), m))
	}
	if len(chain) == 0 {
		r.grants = append(r.grants, w.grant(binding(n.id), mode))
	}
}

func (w *simWorld) lookup(path string, mode byte) {
	if _, ok := w.core.Attr(path, w.now); ok {
		return
	}
	n, chain := w.resolve(path)
	if n == nil {
		return // remote error: nothing to file
	}
	r := &reply{kind: "lookup", path: path}
	w.served(r, n, chain, mode)
	w.logf("lookup %s served", path)
	w.send(r)
}

func (w *simWorld) read(path string, mode byte) {
	ent, named := w.core.Resolve(path, w.now)
	if named && ent.IsDir {
		return
	}
	if _, ok := w.core.Contents(ent.Datum(), w.now); named && ok {
		return
	}
	r := &reply{kind: "read", path: path}
	var n *snode
	if named {
		if n = w.nodes[ent.ID]; n.gone {
			return
		}
		r.attr = n.attr()
	} else {
		var chain []vfs.Edge
		if n, chain = w.resolve(path); n == nil || n.isDir {
			return
		}
		w.served(r, n, chain, 0)
	}
	r.grants = append(r.grants, w.grant(n.datum(), mode))
	r.data = n.contents()
	w.logf("read %s (named=%v) served %s", path, named, r.data)
	w.send(r)
}

func (w *simWorld) list(path string, mode byte) {
	n, _ := w.resolve(path)
	if n == nil || !n.isDir {
		return
	}
	r := &reply{kind: "list", path: path, attr: n.attr(), ents: map[string]Entry{}}
	r.grants = []proto.GrantWire{w.grant(n.datum(), mode)}
	for name, id := range n.ents {
		r.ents[name] = Entry{ID: id, IsDir: w.nodes[id].isDir}
	}
	w.logf("list %s served", path)
	w.send(r)
}

func (w *simWorld) extend() {
	held := w.core.Held()
	if len(held) == 0 {
		return
	}
	r := &reply{kind: "extend"}
	for _, d := range held {
		if !w.nodes[d.Node].gone {
			r.grants = append(r.grants, w.grant(d, 0))
		}
	}
	w.logf("extend served %v", r.grants)
	w.send(r)
}

// ride is a request the client sends anyway, carrying the renewals due
// (AppendRenewals): the server grants them like an extension, mode as
// for any grant, and the client files them under the request's stamp.
func (w *simWorld) ride(mode byte) {
	r := &reply{kind: "renew"}
	for _, d := range w.core.AppendRenewals(nil, w.now) {
		if !w.nodes[d.Node].gone {
			r.grants = append(r.grants, w.grant(d, mode))
		}
	}
	w.logf("renewals served %v", r.grants)
	w.send(r)
}

// refill is a request the client sends anyway, carrying back the files
// it asked for: each granted at its current version, mode as for any
// grant. A refused grant (the write still pending) leaves the file asked
// for; the client files the rest under the request's stamp.
func (w *simWorld) refill(mode byte) {
	r := &reply{kind: "refill"}
	keep := w.refills[:0]
	for _, d := range w.refills {
		n := w.nodes[d.Node]
		if n.gone {
			continue
		}
		g := w.grant(d, mode)
		if !g.Leased {
			keep = append(keep, d)
			continue
		}
		r.refills = append(r.refills, proto.RefillWire{Attr: n.attr(), Grant: g, Data: n.contents()})
	}
	w.refills = keep
	w.logf("refills served %v", r.refills)
	w.send(r)
}

// clear is §2 clearance of d for somebody else's change: a standing
// per-client lease costs a callback, which the client's read loop
// handles the moment it arrives; a class horizon can only be waited out.
func (w *simWorld) clear(d vfs.Datum) bool {
	if !w.now.After(w.horizon[d]) {
		return false
	}
	if !w.now.After(w.lease[d]) {
		refill := w.core.Surrender(d, w.now)
		w.logf("callback %v (refill %v)", d, refill)
		if refill && !slices.Contains(w.refills, d) {
			w.refills = append(w.refills, d)
		}
	}
	delete(w.lease, d)
	for i, m := range w.members {
		if m == d { // drop-on-write demotion
			w.members = append(append([]vfs.Datum(nil), w.members[:i]...), w.members[i+1:]...)
			w.gen++
		}
	}
	return true
}

// otherWrite is another client writing file path.
func (w *simWorld) otherWrite(path string) {
	if n, _ := w.resolve(path); n != nil && !n.isDir && w.clear(n.datum()) {
		n.version++
		w.logf("other wrote %s -> v%d", path, n.version)
	}
}

// otherMutate is another client changing directory dir: how picks
// chmod of, removal of, or creation/replacement of the child name.
func (w *simWorld) otherMutate(dir, name string, how byte) {
	d, _ := w.resolve(dir)
	if d == nil || !d.isDir || !w.clear(d.datum()) {
		return
	}
	child := w.nodes[d.ents[name]]
	switch {
	case child == nil:
		w.mknode(d, name, false)
	case how%2 == 0:
		child.owner++
	case !child.isDir:
		child.gone = true
		delete(d.ents, name)
	default:
		return
	}
	d.version++
	w.logf("other changed %s/%s (how %d) -> v%d", dir, name, how%2, d.version)
}

// ownWrite is this client writing file path through: no clearance is
// asked of the writer and its lease stands.
func (w *simWorld) ownWrite(path string) {
	n, _ := w.resolve(path)
	if n == nil || n.isDir {
		return
	}
	n.version++
	w.unacked[n.datum()]++
	w.logf("own write %s -> v%d", path, n.version)
	w.send(&reply{kind: "write", datum: n.datum(), attr: n.attr(), data: n.contents()})
}

func (w *simWorld) ownCreate(path string) {
	d, _ := w.resolve(dirOf(path))
	if d == nil || !d.isDir {
		return
	}
	r := &reply{kind: "failed"} // exists: refused, nothing applied
	if _, exists := d.ents[baseOf(path)]; !exists {
		n := w.mknode(d, baseOf(path), false)
		d.version++
		w.unacked[d.datum()]++
		r = &reply{kind: "create", dir: d.id, v: d.version, name: n.name, attr: n.attr()}
	}
	w.logf("own create %s: %s", path, r.kind)
	w.send(r)
}

func (w *simWorld) ownRemove(path string) {
	d, _ := w.resolve(dirOf(path))
	n, _ := w.resolve(path)
	r := &reply{kind: "failed"}
	if n != nil && !n.isDir && path != "/" {
		n.gone = true
		delete(d.ents, n.name)
		d.version++
		w.unacked[d.datum()]++
		r = &reply{kind: "remove", dir: d.id, v: d.version, name: n.name}
	}
	w.logf("own remove %s: %s", path, r.kind)
	w.send(r)
}

// ownRename moves file from to path to. With torn set the source
// removal applies and the reply is an error all the same — the
// cross-shard rename whose destination commit was refused.
func (w *simWorld) ownRename(from, to string, torn bool) {
	src, _ := w.resolve(dirOf(from))
	dst, _ := w.resolve(dirOf(to))
	n, _ := w.resolve(from)
	if clash, _ := w.resolve(to); n == nil || n.isDir || dst == nil || !dst.isDir || clash != nil {
		w.logf("own rename %s %s: failed", from, to)
		w.send(&reply{kind: "failed"})
		return
	}
	r := &reply{kind: "rename", dir: src.id, name: n.name, dir2: dst.id, name2: baseOf(to)}
	delete(src.ents, n.name)
	src.version++
	w.unacked[src.datum()]++
	r.v = src.version
	if torn {
		n.gone = true
		r.kind = "failed"
	} else {
		n.name = baseOf(to)
		dst.ents[n.name] = n.id
		if dst != src {
			dst.version++
			w.unacked[dst.datum()]++
		}
		r.v2 = dst.version
	}
	w.logf("own rename %s %s: %s", from, to, r.kind)
	w.send(r)
}

// install puts the files under /a/b into the class; broadcast renews
// it; snapshot answers a fetch.
func (w *simWorld) install() {
	w.members = nil
	if d, _ := w.resolve("/a/b"); d != nil {
		for _, id := range d.ents {
			if n := w.nodes[id]; !n.isDir {
				w.members = append(w.members, n.datum())
			}
		}
	}
	sort.Slice(w.members, func(i, j int) bool { return w.members[i].Node < w.members[j].Node })
	w.gen++
	w.logf("installed gen %d: %v", w.gen, w.members)
}

func (w *simWorld) classFrame(kind string) {
	if w.gen == 0 {
		return
	}
	for _, d := range w.members {
		w.horizon[d] = w.now.Add(simTerm)
	}
	w.logf("%s gen %d", kind, w.gen)
	w.send(&reply{kind: kind, gen: w.gen, members: w.members, sentAt: w.now})
}

// deliver files pending reply i the way internal/client's Wait methods
// and push handlers do.
func (w *simWorld) deliver(i int) {
	r := w.pending[i]
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
	q, c := r.q, w.core
	if w.breakFence {
		q.Epoch = c.Begin(w.now).Epoch
	}
	w.logf("deliver %s %s (sent e%d)", r.kind, r.path, r.q.Epoch)
	switch r.kind {
	case "lookup":
		c.File(q, Reply{Path: r.path, Attr: r.attr, Chain: r.chain, Grants: r.grants}, w.now)
	case "read":
		c.File(q, Reply{Path: r.path, Attr: r.attr, Chain: r.chain, Grants: r.grants, Data: r.data}, w.now)
	case "list":
		c.File(q, Reply{Attr: r.attr, Grants: r.grants, Ents: r.ents}, w.now)
	case "extend", "renew":
		c.FileExtension(q, r.grants, w.now)
	case "refill":
		for _, f := range r.refills {
			c.File(q, Reply{Attr: f.Attr, Grants: []proto.GrantWire{f.Grant}, Data: f.Data, Refill: true}, w.now)
		}
	case "write":
		w.unacked[r.datum]--
		c.OwnWrite(q, r.datum, r.attr, r.data)
	case "create":
		w.unacked[binding(r.dir)]--
		c.OwnCreate(r.dir, r.v, r.name, r.attr)
	case "remove":
		w.unacked[binding(r.dir)]--
		c.OwnRemove(r.dir, r.v, r.name)
	case "rename":
		w.unacked[binding(r.dir)]--
		if r.dir2 != r.dir {
			w.unacked[binding(r.dir2)]--
		}
		c.OwnRename(r.dir, r.v, r.name, r.dir2, r.v2, r.name2)
	case "failed":
		if r.dir != 0 {
			w.unacked[binding(r.dir)]--
		}
		c.DropBindings()
	case "bcast":
		c.Broadcast(r.gen, simTerm, r.sentAt, w.now)
	case "snap":
		c.Snapshot(r.gen, simTerm, r.members, r.sentAt, w.now)
	}
}

// reconnect is the session dying: the cache revalidates everything.
// Calls still in flight fail; the pending replies stay, as the worst
// case of futures whose reply had already arrived and is waited on later.
func (w *simWorld) reconnect() {
	w.logf("reconnect")
	w.core.DropAll()
	w.refills = nil // the server's list dies with the connection
}

// check is the oracle.
func (w *simWorld) check() {
	for _, p := range simPaths {
		ent, ok := w.core.Resolve(p, w.now)
		if !ok {
			continue
		}
		// (a) every directory the walk read an edge from is still leased.
		lagging := false
		for i := 0; i < len(p)-1; i++ {
			if i > 0 && p[i] != '/' {
				continue
			}
			dir, _ := w.core.Resolve(p[:max(i, 1)], w.now)
			if !w.honoured(dir.Datum()) {
				w.fail("Resolve(%s) read %v, which the server no longer honours", p, dir.Datum())
			}
			lagging = lagging || w.unacked[dir.Datum()] > 0
		}
		// (b) and it names what the path names now.
		truth, _ := w.resolve(p)
		if lagging {
			continue
		}
		if truth == nil || truth.id != ent.ID || truth.isDir != ent.IsDir {
			w.fail("Resolve(%s) = %+v, truth %+v", p, ent, truth)
		}
		if attr, ok := w.core.Attr(p, w.now); ok {
			if p == "/" && !w.honoured(truth.datum()) {
				w.fail("Attr(/) under a root lease the server no longer honours")
			}
			if want := truth.attr(); attr.ID != want.ID || attr.Name != want.Name || attr.Owner != want.Owner {
				w.fail("Attr(%s) = %+v, truth %+v", p, attr, want)
			}
		}
	}
	for _, n := range w.nodes {
		if n.isDir {
			ents, ok := w.core.Listing(n.id, w.now)
			if !ok || w.unacked[n.datum()] > 0 {
				continue
			}
			if !w.honoured(n.datum()) {
				w.fail("Listing(%d) under a lease the server no longer honours", n.id)
			}
			if len(ents) != len(n.ents) {
				w.fail("Listing(%d) = %v, truth %v", n.id, ents, n.ents)
			}
			for _, e := range ents {
				if n.ents[e.Name] != e.ID {
					w.fail("Listing(%d) = %v, truth %v", n.id, ents, n.ents)
				}
			}
			continue
		}
		data, ok := w.core.Contents(n.datum(), w.now)
		if !ok {
			continue
		}
		if !w.honoured(n.datum()) {
			w.fail("Contents(%v) under a lease the server no longer honours", n.datum())
		}
		if w.unacked[n.datum()] == 0 && string(data) != string(n.contents()) {
			w.fail("Contents(%v) = %s, truth %s", n.datum(), data, n.contents())
		}
	}
}

// Program encoding: one opcode byte and one operand byte per step.
const (
	opAdvance = iota // operand+1 quarter-terms
	opLookup         // path, grant mode in the top bits
	opRead
	opList
	opDeliver // which pending reply
	opAbandon // drop a pending fetch reply: a future nobody waits on
	opOtherWrite
	opOtherMutate
	opOwnWrite
	opOwnCreate
	opOwnRemove
	opOwnRename // operand picks source and destination
	opOwnRenameTorn
	opExtend
	opRide // the renewals due, riding a request
	opInstall
	opBroadcast
	opSnapshot
	opReconnect
	opRefill // the files asked back for, riding a request
	opCount
)

func (w *simWorld) step(op, arg byte) {
	path := simPaths[int(arg&0x3f)%len(simPaths)]
	mode := arg >> 6 // 0 and 3: a plain grant
	switch op % opCount {
	case opAdvance:
		w.now = w.now.Add(time.Duration(arg%8+1) * simTerm / 4)
	case opLookup:
		w.lookup(path, mode)
	case opRead:
		w.read(path, mode)
	case opList:
		w.list(path, mode)
	case opDeliver:
		if len(w.pending) > 0 {
			w.deliver(int(arg) % len(w.pending))
		}
	case opAbandon:
		if n := len(w.pending); n > 0 {
			switch r := w.pending[int(arg)%n]; r.kind {
			case "lookup", "read", "list", "extend", "renew", "refill", "bcast", "snap":
				w.logf("abandon %s %s", r.kind, r.path)
				w.pending = append(w.pending[:int(arg)%n], w.pending[int(arg)%n+1:]...)
			}
		}
	case opOtherWrite:
		w.otherWrite(path)
	case opOtherMutate:
		w.otherMutate(dirOf(path), baseOf(path), mode)
	case opOwnWrite:
		w.ownWrite(path)
	case opOwnCreate:
		w.ownCreate(path)
	case opOwnRemove:
		w.ownRemove(path)
	case opOwnRename, opOwnRenameTorn:
		to := simPaths[int(arg>>3)%len(simPaths)]
		w.ownRename(simPaths[int(arg&7)%len(simPaths)+1], to, op%opCount == opOwnRenameTorn)
	case opExtend:
		w.extend()
	case opRide:
		w.ride(mode)
	case opInstall:
		w.install()
	case opBroadcast:
		w.classFrame("bcast")
	case opSnapshot:
		w.classFrame("snap")
	case opReconnect:
		w.reconnect()
	case opRefill:
		w.refill(mode)
	}
	w.check()
}

// runProgram runs prog from a fresh world and returns the oracle's
// first complaint, or "".
func runProgram(prog []byte, breakFence bool) (found string) {
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
	w.breakFence = breakFence
	for i := 0; i+1 < len(prog); i += 2 {
		w.step(prog[i], prog[i+1])
	}
	return ""
}

// pathArg is the operand naming path p.
func pathArg(p string) byte {
	for i, q := range simPaths {
		if p == q {
			return byte(i)
		}
	}
	panic("not a sim path: " + p)
}
