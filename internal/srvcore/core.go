// Package srvcore is the lease server's protocol core, sans IO: the
// order every mutation goes through and the rule for what each clears,
// checks and ships (plan.go), the machine that drives every plan
// (machine.go), the read side — grants, renewals and refills (read.go) —
// the promotion that takes a new master from its merged sync
// to serving (promotion.go), and the state tables that order reads:
// replication state and the serving gate (this file) and the
// installed-files class (class.go).
//
// Like replica.Machine and cache.Core it has no goroutine, channel,
// timer, socket or clock: every entry point takes now. internal/server
// is its TCP shell and internal/check its shell on the simulated fabric:
// both perform what one Machine and one Promotion hand them, so what the
// model checker explores is the code that ships.
package srvcore

import (
	"errors"
	"sort"
	"sync"
	"time"

	"leases/internal/core"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// ErrNotMaster fails a plan on a replica that is not (or is no longer)
// the serving master. The TCP shell answers it by severing the
// connection, so the client's session redials toward the master and
// resubmits there.
var ErrNotMaster = errors.New("server: not master")

// Config parameterizes a Core.
type Config struct {
	// Store is the file store replicated writes land in.
	Store *vfs.Store
	// Owner owns files a replicated write creates (the namespace is
	// master-only, so a write can arrive for a path never seen here).
	Owner string
	// Term and Shards build the lease manager; RecoverUntil, when set,
	// is the §2 restart window every shard honours. A fresh grant runs
	// Term; a reused, uncontended lease renews for core.ReuseFactor
	// terms (core.WithReuseStretch).
	Term         time.Duration
	Shards       int
	RecoverUntil time.Time
	// NoStretch grants every lease exactly Term, the paper's rule,
	// without the reuse stretch. The server's counted cost table sets it
	// to compare fixed terms with the shipped rule; nothing else does.
	NoStretch bool
	// Master reports whether this replica holds the master lease at now.
	// Nil is a standalone server: always serving, nothing to ship.
	Master func(now time.Time) bool
	// Class configures the installed-files class; the zero value is off.
	Class ClassConfig
}

// Ceiling is the longest term a Core built from cfg can grant: Term,
// stretched core.ReuseFactor times unless NoStretch or the product
// overflows, and at least the class's InstalledTerm when the class is
// on. It is the §2 recovery window — "the maximum term for which it has
// granted a lease" — known from the configuration alone, so both shells
// make it durable once, before they serve, and nothing durable runs on a
// grant.
func (cfg Config) Ceiling() time.Duration {
	t := cfg.Term
	if !cfg.NoStretch && t < core.Infinite/core.ReuseFactor {
		t *= core.ReuseFactor
	}
	if cc := cfg.Class.WithDefaults(); cc.Enabled() {
		t = max(t, cc.InstalledTerm)
	}
	return t
}

// Core is one server's protocol state. Safe for concurrent use.
type Core struct {
	cfg Config
	lm  *core.ShardedManager
	// Classes is the installed-files class; nil when disabled.
	Classes *ClassTable

	// Replication state (quiescent on a standalone server). seq orders
	// each path's replicated writes: it is the sequence of the bytes this
	// replica's store holds, so it only ever moves together with them;
	// assigned is the highest sequence this replica has shipped as master,
	// applied or not. term is the largest lease term this replica knows a
	// master may have granted (a quorum's raise, or its own durable file);
	// recoverUntil gates writes on a freshly
	// promoted master (§2 window after failover). serving opens only at
	// the end of Promote — after the catch-up state merged and the window
	// was armed — and closes on Demote, so the gap between the election
	// win and the promotion sync can never accept a session or clear a
	// write against unmerged sequence state. reign counts promotions: a
	// plan belongs to the reign it began in.
	mu           sync.Mutex
	seq          map[string]uint64
	assigned     map[string]uint64
	term         time.Duration
	recoverUntil time.Time
	serving      bool
	reign        uint64
	// classImage is the latest replicated class-membership image, kept raw
	// so even a replica with the class disabled relays it through syncs.
	classImage []byte
}

// New returns a Core over cfg.Store with no leases granted.
func New(cfg Config) *Core {
	var opts []core.ManagerOption
	if !cfg.NoStretch {
		opts = append(opts, core.WithReuseStretch())
	}
	if !cfg.RecoverUntil.IsZero() {
		opts = append(opts, core.WithRecoveryWindow(cfg.RecoverUntil))
	}
	c := &Core{
		cfg:      cfg,
		lm:       core.NewShardedManager(cfg.Shards, cfg.Term, opts...),
		seq:      make(map[string]uint64),
		assigned: make(map[string]uint64),
	}
	if cfg.Class.Enabled() {
		c.Classes = newClassTable(cfg.Class)
	}
	return c
}

// Leases is the lease manager, for a shell to read: grants, approvals and
// releases reach it through the Machine, and writes only through a Plan.
func (c *Core) Leases() *core.ShardedManager { return c.lm }

// Serving reports whether this replica may accept sessions and clear
// writes: always on a standalone server; on a replicated one only while
// it holds the master lease, between a completed Promote and the next
// Demote. Mastership alone is not sufficient — it turns true at the
// election win, before the promotion sync has merged quorum state.
func (c *Core) Serving(now time.Time) bool {
	if c.cfg.Master == nil {
		return true
	}
	if !c.cfg.Master(now) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serving
}

// ReplFile is one replicated file's state, as exchanged during a new
// master's catch-up sync.
type ReplFile = proto.ReplFile

// ApplyReplicated installs one replicated op (data, its wire form) pushed
// by the master or merged during promotion, reporting whether it was
// actually applied. An op that does not decode is refused with the error.
// Stale sequence numbers — retries, reordered pushes, sync entries older
// than what this replica already holds — are dropped with applied=false;
// the distinction matters because the master must not count a stale drop
// toward its replication quorum (a drop means this replica does NOT hold
// those bytes). Only writes and moves ship (ROADMAP item 1), so a move-in
// to a path held here writes the bytes, and a write to a path missing
// here creates the file world-writable as the configured owner: the real
// record lives at the master, and after a promotion the §2 recovery
// window, not permissions, protects the bytes.
func (c *Core) ApplyReplicated(path string, seq uint64, data []byte) (applied bool, err error) {
	var op vfs.Op
	if path != ClassStatePath {
		d := proto.NewDec(data)
		if op = d.DecodeOp(); d.Err != nil {
			return false, d.Err
		}
	}
	c.mu.Lock()
	if seq <= c.seq[path] {
		c.mu.Unlock()
		return false, nil
	}
	c.seq[path] = seq
	if path == ClassStatePath {
		// Class membership replicates under a reserved key that never
		// touches the store; a promotion rebinds it to local node IDs.
		c.classImage = append([]byte(nil), data...)
		c.mu.Unlock()
		return true, nil
	}
	c.mu.Unlock()
	_, lerr := c.cfg.Store.Lookup(op.Path)
	switch {
	case lerr == nil && op.Kind == vfs.OpCreate:
		op = vfs.Op{Kind: vfs.OpWrite, Path: op.Path, Data: op.Data}
	case lerr != nil && op.Kind == vfs.OpWrite:
		op = vfs.Op{Kind: vfs.OpCreate, Path: op.Path, Owner: c.cfg.Owner, Perm: vfs.DefaultPerm | vfs.WorldWrite, Data: op.Data}
	}
	_, err = c.cfg.Store.Apply(op)
	return err == nil, err
}

// encodeOp is op's wire form, in a buffer of its own.
func encodeOp(op vfs.Op) []byte {
	e := proto.EncOn(make([]byte, 0, 16+len(op.Path)+len(op.To)+len(op.Owner)+len(op.Data)))
	return e.EncodeOp(op).Bytes()
}

// moveIn is the wire form of the move-in that recreates the file at
// path as it stands: its contents, owner and permissions (false: no file
// is there).
func (c *Core) moveIn(path string) ([]byte, bool) {
	a, err := c.cfg.Store.Lookup(path)
	if err != nil {
		return nil, false
	}
	data, attr, err := c.cfg.Store.ReadFile(a.ID)
	if err != nil {
		return nil, false
	}
	return encodeOp(vfs.Op{Kind: vfs.OpCreate, Path: path, Owner: attr.Owner, Perm: attr.Perm, Data: data}), true
}

// Seq is the replication sequence of the bytes this replica holds for
// path (zero: never replicated).
func (c *Core) Seq(path string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq[path]
}

// nextSeq assigns path's next replication sequence: past what the store
// holds and past anything this replica shipped before — a ship that
// failed may still sit on a follower, and must not share a number with
// different bytes.
func (c *Core) nextSeq(path string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := max(c.seq[path], c.assigned[path]) + 1
	c.assigned[path] = n
	return n
}

// shippedApplied records that the master's own store now holds path's
// write number seq.
func (c *Core) shippedApplied(path string, seq uint64) {
	c.mu.Lock()
	if seq > c.seq[path] {
		c.seq[path] = seq
	}
	c.mu.Unlock()
}

// ReplState answers a catch-up sync — a new master's promotion or a
// restarted replica's rejoin — with every file this replica holds a
// replication sequence for, sorted by path, each as the move-in that
// recreates it. A file replication never wrote (a seeded fixture,
// identical on every replica by construction) is left out: listed, it
// would sit at sequence zero, which ApplyReplicated drops and Merge
// settles exactly as it does a path a reply lacks. So a sync costs what
// replication wrote, not the size of the store. The class-membership
// image rides the same sync under its reserved key, so a new master
// inherits the installed set (traffic continuity; safety never depends
// on it).
func (c *Core) ReplState() []ReplFile {
	var out []ReplFile
	c.mu.Lock()
	for path, seq := range c.seq {
		if path != ClassStatePath {
			out = append(out, ReplFile{Path: path, Seq: seq})
		}
	}
	image := ReplFile{Path: ClassStatePath, Seq: c.seq[ClassStatePath], Data: c.classImage}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	files := out[:0]
	for _, f := range out {
		var ok bool
		if f.Data, ok = c.moveIn(f.Path); ok {
			files = append(files, f)
		}
	}
	if len(image.Data) > 0 {
		files = append(files, image)
	}
	return files
}

// RaiseTerm records that a quorum (or this replica's durable file) knows
// lease terms up to d: this replica's contribution to a future
// promotion's floor.
func (c *Core) RaiseTerm(d time.Duration) {
	c.mu.Lock()
	if d > c.term {
		c.term = d
	}
	c.mu.Unlock()
}

// TermFloor is the largest lease term this replica knows replicated —
// its contribution to a new master's recovery window.
func (c *Core) TermFloor() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Merge applies the catch-up state a freshly elected master synced from
// a quorum of peers: files is every reply's ReplState, one after the
// other (a reply lists a path it does not hold at sequence zero). Each
// entry passes through ApplyReplicated's sequence guard, which IS the
// merge with this replica's own state: self plus quorum-1 peers form a
// quorum, every write quorum intersects it, and per-path max-seq wins.
//
// What the merge leaves behind is not yet safe to serve. A write that
// was acknowledged is on a quorum, but the merge cannot tell it from one
// that was shipped to a single follower by a master that then failed:
// exposing that one and losing it to the next failover — whose quorum
// may miss the lone holder — would show readers a value and then take
// it back. So Merge returns every file whose sequence the replies and
// this replica do not hold unanimously, under a fresh sequence: the
// Promotion ships each to a quorum, reports Settled, and only then calls
// Promote.
func (c *Core) Merge(files []ReplFile) (unsettled []ReplFile) {
	type tally struct {
		seq     uint64
		settled bool
	}
	tallies := make(map[string]tally)
	for _, f := range files {
		if t, seen := tallies[f.Path]; !seen {
			tallies[f.Path] = tally{f.Seq, f.Seq == c.Seq(f.Path)}
		} else if t.seq != f.Seq {
			tallies[f.Path] = tally{max(t.seq, f.Seq), false}
		}
	}
	for _, f := range files {
		c.ApplyReplicated(f.Path, f.Seq, f.Data)
	}
	c.mu.Lock()
	var paths []string
	for path, seq := range c.seq {
		if seq > 0 && path != ClassStatePath && !tallies[path].settled {
			paths = append(paths, path)
		}
	}
	c.mu.Unlock()
	sort.Strings(paths)
	for _, path := range paths {
		if data, ok := c.moveIn(path); ok {
			unsettled = append(unsettled, ReplFile{Path: path, Seq: c.nextSeq(path), Data: data})
		}
	}
	return unsettled
}

// Settled records that a quorum holds a file Merge returned.
func (c *Core) Settled(f ReplFile) { c.shippedApplied(f.Path, f.Seq) }

// Promote opens the §2 recovery window and the serving gate on a master
// whose merged state is settled, returning the window's length. floor is
// the merged max-term floor of a quorum, this replica's own TermFloor
// among them, taken before this master raised its own ceiling: the
// window is the worst lease any previous master could have granted, so
// every outstanding lease has provably expired before this replica
// clears its first write. A cluster no master ever served has all-zero
// floors and serves immediately. Serving opens in the same critical
// section that arms the window, so no session or write can slip in
// between the election win and the merged state.
func (c *Core) Promote(floor time.Duration, now time.Time) time.Duration {
	c.mu.Lock()
	image := c.classImage
	c.mu.Unlock()
	if c.Classes != nil && len(image) > 0 {
		c.Classes.rebind(image, c.cfg.Store)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recoverUntil = now.Add(floor)
	c.serving = true
	c.reign++
	return floor
}

// Demote closes the serving gate. Lease records are left to expire on
// their own — the successor's recovery window already covers them — and
// every plan in flight fails at its next step.
func (c *Core) Demote() {
	c.mu.Lock()
	c.serving = false
	c.mu.Unlock()
}

// gate reads the serving state a plan checks itself against.
func (c *Core) gate() (serving bool, reign uint64, recoverUntil time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serving, c.reign, c.recoverUntil
}

// noteClassImage records a class-membership image this master is about
// to replicate and assigns its sequence.
func (c *Core) noteClassImage(image []byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq[ClassStatePath]++
	c.classImage = image
	return c.seq[ClassStatePath]
}
