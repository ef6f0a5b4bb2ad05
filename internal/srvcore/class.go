package srvcore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// This file is the server side of the paper's §4.3 installed-files
// class: one directory-granularity lease per client covering rarely
// written data, renewed by a periodic O(1) broadcast and dropped on the
// first write.
//
// The class is a coverage layer ON TOP of per-file leases, not a
// replacement for the lease manager's records. The server never enters
// installed data into the manager; instead the table records, for every
// broadcast or snapshot it is ABOUT to send, the latest instant any
// client could believe itself covered (sentAt + term). A write touching
// installed data demotes it from the class — membership drops, the
// generation bumps so every holder's next broadcast stamp exposes the
// staleness — and then waits out that recorded horizon before taking the
// normal per-file clearance path. Recording before sending keeps the
// server's wait ≥ any client's belief, which is anchored at
// sentAt + term − ε; the scheme needs no per-client bookkeeping and no
// acknowledgement traffic, exactly the economy §4.3 is after.

// ClassConfig configures the lease-class subsystem. The zero value
// disables it entirely: no class table, so nothing is ever broadcast.
type ClassConfig struct {
	// InstalledDirs installs every file under these directory prefixes
	// ("/bin", "/lib", ...) on first read — the operator's list of
	// installed, rarely-written subtrees (§4.3).
	InstalledDirs []string
	// QuietAfterWrite is how long after a write a file is ineligible for
	// (re-)promotion. Zero means InstalledTerm.
	QuietAfterWrite time.Duration
	// InstalledTerm is the term each broadcast extension grants the
	// whole class. Zero means 30s.
	InstalledTerm time.Duration
	// BroadcastEvery is the broadcast-extension period. Zero means
	// InstalledTerm/4.
	BroadcastEvery time.Duration
}

// Enabled reports whether the installed-files class is on.
func (cc ClassConfig) Enabled() bool {
	return len(cc.InstalledDirs) > 0
}

// WithDefaults fills the zero timing fields of an enabled configuration.
func (cc ClassConfig) WithDefaults() ClassConfig {
	if !cc.Enabled() {
		return cc
	}
	if cc.InstalledTerm <= 0 {
		cc.InstalledTerm = 30 * time.Second
	}
	if cc.BroadcastEvery <= 0 {
		cc.BroadcastEvery = cc.InstalledTerm / 4
	}
	if cc.QuietAfterWrite <= 0 {
		cc.QuietAfterWrite = cc.InstalledTerm
	}
	return cc
}

// ClassStatePath is the reserved replication key for class membership.
// It never exists in the vfs store; ApplyReplicated keeps the image raw
// so a failing-over master inherits the installed set and clients see
// only a generation bump, not a coverage gap.
const ClassStatePath = "/.lease-class-state"

// ClassTable is the installed-files class: membership, the coverage
// horizon, and the write times that keep a datum out. It has its own
// mutex — class decisions span data on different manager shards, so no
// shard lock could cover them.
type ClassTable struct {
	cfg ClassConfig

	mu  sync.Mutex
	gen uint64
	// members maps each installed datum to its path (the replication
	// and admin representation; node IDs are not stable across
	// replicas).
	members map[vfs.Datum]string
	// coverUntil is the latest instant any client could believe any
	// member covered: maxed with sentAt+term BEFORE every broadcast or
	// snapshot leaves the server.
	coverUntil time.Time
	// demoted records, per recently demoted datum, the coverage horizon
	// a write must wait out. Entries are dropped once they pass.
	demoted map[vfs.Datum]time.Time
	// lastWrite is when each datum's last write ended; writing counts,
	// per datum, the write plans in flight on it. A datum being written,
	// or written within QuietAfterWrite, may not (re-)enter the class: a
	// broadcast would extend its readers' old copies past the write,
	// whose horizon was fixed when it demoted.
	lastWrite map[vfs.Datum]time.Time
	writing   map[vfs.Datum]int
}

func newClassTable(cfg ClassConfig) *ClassTable {
	dirs := make([]string, len(cfg.InstalledDirs))
	for i, dir := range cfg.InstalledDirs {
		dirs[i] = strings.TrimRight(dir, "/")
	}
	cfg.InstalledDirs = dirs
	return &ClassTable{
		cfg:       cfg,
		members:   make(map[vfs.Datum]string),
		demoted:   make(map[vfs.Datum]time.Time),
		lastWrite: make(map[vfs.Datum]time.Time),
		writing:   make(map[vfs.Datum]int),
	}
}

// staticPath reports whether path falls under a configured installed
// directory.
func (ct *ClassTable) staticPath(path string) bool {
	for _, dir := range ct.cfg.InstalledDirs {
		// "/" normalizes to empty: the whole tree is installed.
		if dir == "" || path == dir || strings.HasPrefix(path, dir+"/") {
			return true
		}
	}
	return false
}

// quietLocked reports whether d is being written, or was written too
// recently, to (re-)enter the class.
func (ct *ClassTable) quietLocked(d vfs.Datum, now time.Time) bool {
	lw, ok := ct.lastWrite[d]
	return ct.writing[d] > 0 || ok && now.Before(lw.Add(ct.cfg.QuietAfterWrite))
}

// observeRead installs d on a served read of it when it lies under an
// installed directory, is not a member yet and is quiet. When membership
// changed it returns the image to replicate to the peers, best effort:
// unlike file writes, class state is a traffic optimization — failover
// SAFETY rests on the replicated installed term and the §2 recovery
// window, so a failed push costs renewal traffic, never correctness.
func (c *Core) observeRead(d vfs.Datum, now time.Time) (ReplFile, bool) {
	ct := c.Classes
	path, err := c.cfg.Store.Path(d.Node)
	if err != nil || !ct.staticPath(path) {
		return ReplFile{}, false
	}
	ct.mu.Lock()
	if _, member := ct.members[d]; member || ct.quietLocked(d, now) {
		ct.mu.Unlock()
		return ReplFile{}, false
	}
	ct.members[d] = path
	ct.gen++
	image := ct.encodeLocked()
	ct.mu.Unlock()
	return ReplFile{Path: ClassStatePath, Seq: c.noteClassImage(image), Data: image}, true
}

// demote is drop-on-write (§4.3): every datum in data leaves the class,
// and the returned deadline is the coverage horizon the write must wait
// out — the max over the data's recorded demotion horizons, including
// horizons left by earlier demotions that have not yet passed. The data
// stay out until the write ends (written). dropped lists the data that
// actually left the class, and image is the membership to replicate when
// any did.
func (ct *ClassTable) demote(data []vfs.Datum, now time.Time) (deadline time.Time, dropped []vfs.Datum, image []byte) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for d, until := range ct.demoted {
		if !until.After(now) {
			delete(ct.demoted, d)
		}
	}
	for _, d := range data {
		ct.writing[d]++
		if _, ok := ct.members[d]; ok {
			delete(ct.members, d)
			if ct.coverUntil.After(now) {
				ct.demoted[d] = ct.coverUntil
			}
			dropped = append(dropped, d)
		}
		if until, ok := ct.demoted[d]; ok && until.After(deadline) {
			deadline = until
		}
	}
	if len(dropped) > 0 {
		ct.gen++
		image = ct.encodeLocked()
	}
	return deadline, dropped, image
}

// written ends a write demote let in: applied or failed at now, which is
// where the data's quiet time (QuietAfterWrite) starts.
func (ct *ClassTable) written(data []vfs.Datum, now time.Time) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, d := range data {
		ct.lastWrite[d] = now
		if ct.writing[d]--; ct.writing[d] <= 0 {
			delete(ct.writing, d)
		}
	}
}

// coverLocked stamps an extension about to leave the server, recording
// its horizon first.
func (ct *ClassTable) coverLocked(now time.Time) {
	if until := now.Add(ct.cfg.InstalledTerm); until.After(ct.coverUntil) {
		ct.coverUntil = until
	}
}

// Installed answers a class-snapshot fetch (TInstalled): the membership
// plus a covering extension, its horizon recorded before the reply can
// leave; empty while the class is off.
func (m *Machine) Installed(now time.Time) (w proto.InstalledWire) {
	ct := m.c.Classes
	if ct == nil {
		return w
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	w = proto.InstalledWire{Generation: ct.gen, Term: ct.cfg.InstalledTerm, SentAt: now}
	if len(ct.members) > 0 {
		ct.coverLocked(now)
		w.Data = make([]vfs.Datum, 0, len(ct.members))
		for d := range ct.members {
			w.Data = append(w.Data, d)
		}
		core.SortData(w.Data)
	}
	return w
}

// Broadcast stamps one broadcast-extension round for n connections — O(1)
// per client, however many files each caches (§4.3) — its horizon
// recorded before any frame can leave, and records EvBroadcastExt when
// anyone hears it. ok is false, and nothing is sent, while the class is
// off or empty or this replica does not serve.
func (m *Machine) Broadcast(n int, now time.Time) (w proto.BroadcastExtWire, ok bool) {
	ct := m.c.Classes
	if ct == nil || !m.c.Serving(now) {
		return w, false
	}
	ct.mu.Lock()
	if ok = len(ct.members) > 0; ok {
		ct.coverLocked(now)
		w = proto.BroadcastExtWire{Generation: ct.gen, Term: ct.cfg.InstalledTerm, SentAt: now}
	}
	ct.mu.Unlock()
	if ok && n > 0 && m.obs.Enabled() {
		m.obs.Record(obs.Event{Type: obs.EvBroadcastExt, Depth: n, Term: w.Term})
	}
	return w, ok
}

// encodeLocked serializes generation and membership (kind+path pairs,
// sorted for a deterministic image) for the ClassStatePath record.
func (ct *ClassTable) encodeLocked() []byte {
	keys := make([]vfs.Datum, 0, len(ct.members))
	for d := range ct.members {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool {
		if pi, pj := ct.members[keys[i]], ct.members[keys[j]]; pi != pj {
			return pi < pj
		}
		return keys[i].Kind < keys[j].Kind
	})
	var e proto.Enc
	e.U64(ct.gen).U32(uint32(len(keys)))
	for _, d := range keys {
		e.U8(uint8(d.Kind)).Str(ct.members[d])
	}
	return e.Bytes()
}

// rebind rebuilds membership from the replicated image during promotion:
// paths become local node IDs (IDs are not stable across replicas),
// missing paths drop out, and the generation bumps past the image's so
// every client refetches against this incarnation. The coverage horizon
// resets — this master has extended nothing yet, and the predecessor's
// outstanding coverage is bounded by the replicated installed term,
// which the recovery window already waits out.
func (ct *ClassTable) rebind(image []byte, store *vfs.Store) {
	d := proto.NewDec(image)
	gen, n := d.U64(), d.U32()
	if d.Err != nil || n > 1<<20 {
		return
	}
	members := make(map[vfs.Datum]string, n)
	for i := uint32(0); i < n; i++ {
		kind, path := vfs.DatumKind(d.U8()), d.Str()
		if d.Err != nil {
			return
		}
		if attr, err := store.Lookup(path); err == nil {
			members[vfs.Datum{Kind: kind, Node: attr.ID}] = path
		}
	}
	ct.mu.Lock()
	if gen < ct.gen {
		gen = ct.gen
	}
	ct.gen = gen + 1
	ct.members = members
	ct.coverUntil = time.Time{}
	ct.mu.Unlock()
}

// ClassInfo is the admin plane's view of the installed class.
type ClassInfo struct {
	Generation uint64        `json:"generation"`
	Term       time.Duration `json:"term"`
	Members    []ClassMember `json:"members"`
	Demoted    int           `json:"demoted_pending"`
	CoverUntil time.Time     `json:"cover_until"`
}

// ClassMember is one installed datum with its path.
type ClassMember struct {
	Path string `json:"path"`
	Kind uint8  `json:"kind"`
	Node uint64 `json:"node"`
}

// Info reports the installed class for the admin plane.
func (ct *ClassTable) Info() ClassInfo {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	info := ClassInfo{
		Generation: ct.gen,
		Term:       ct.cfg.InstalledTerm,
		Demoted:    len(ct.demoted),
		CoverUntil: ct.coverUntil,
	}
	for d, p := range ct.members {
		info.Members = append(info.Members, ClassMember{Path: p, Kind: uint8(d.Kind), Node: uint64(d.Node)})
	}
	sort.Slice(info.Members, func(i, j int) bool { return info.Members[i].Path < info.Members[j].Path })
	return info
}
