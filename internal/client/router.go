// Ring-routed client: the sharded deployment's front door. A Router
// holds one Cache per replica group — each with the full session
// machinery (reconnect, NOT_MASTER failover, lease caching) — and maps
// every path operation onto the group the consistent-hash ring says
// owns it. The routing table is a shard.Ring snapshot refreshed from
// the servers' epoch-stamped TRingRep, and NOT_OWNER redirects steer
// stale routes the way NOT_MASTER redirects steer stale master
// beliefs: the refusing server names the owner and its epoch, the
// Router refetches the ring when the server's is newer, and the retry
// lands on the owner within a bounded redirect budget.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"leases/internal/proto"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// NotOwnerError is a sharded server's refusal of a path operation it
// does not own: the owning group's ID and the server's ring epoch. An
// epoch newer than the client's routing table means the table is
// stale and must be refetched before the retry can be trusted.
type NotOwnerError struct {
	Group int
	Epoch uint64
}

func (e NotOwnerError) Error() string {
	return fmt.Sprintf("client: not the owner (owner group %d, server epoch %d)", e.Group, e.Epoch)
}

// routerRedirectBudget bounds how many NOT_OWNER redirects one
// operation may follow. Two groups disagreeing about a path resolves
// in one hop once the ring refreshes; the budget covers an epoch bump
// racing the retry.
const routerRedirectBudget = 4

// Router routes path operations across the replica groups of a
// sharded deployment.
type Router struct {
	cfg Config

	mu     sync.Mutex
	ring   *shard.Ring
	caches map[int]*Cache // connected per-group sessions, by group ID
	closed bool

	redirects int64 // NOT_OWNER redirects followed (atomic)
}

// NewRouter builds a router over an initial ring snapshot (typically
// shard.Parse of a -ring flag). Group sessions dial lazily on first
// use; cfg is the per-group session template (ID, reconnect policy,
// observability) — its Replicas and Redial are supplied per group from
// the ring.
func NewRouter(ring *shard.Ring, cfg Config) (*Router, error) {
	if ring == nil {
		return nil, fmt.Errorf("client: router needs a ring")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("client: empty ID")
	}
	return &Router{cfg: cfg, ring: ring, caches: make(map[int]*Cache)}, nil
}

// Ring returns the current routing table snapshot.
func (r *Router) Ring() *shard.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// Redirects reports how many NOT_OWNER redirects this router has
// followed — zero in steady state, transiently positive while a ring
// epoch rollout converges.
func (r *Router) Redirects() int64 { return atomic.LoadInt64(&r.redirects) }

// Close closes every group session.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	caches := make([]*Cache, 0, len(r.caches))
	for _, c := range r.caches {
		caches = append(caches, c)
	}
	r.caches = make(map[int]*Cache)
	r.mu.Unlock()
	var first error
	for _, c := range caches {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cacheFor returns (dialing if needed) the session for the group that
// owns path, honoring a forced group (a NOT_OWNER hint) when >= 0.
func (r *Router) cacheFor(path string, forced int) (*Cache, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, -1, ErrClosed
	}
	gid := forced
	if gid < 0 {
		gid = r.ring.Lookup(path)
	}
	if c, ok := r.caches[gid]; ok {
		r.mu.Unlock()
		return c, gid, nil
	}
	g, ok := r.ring.Group(gid)
	r.mu.Unlock()
	if !ok || len(g.Replicas) == 0 {
		return nil, gid, fmt.Errorf("client: no replicas for group %d", gid)
	}
	c, err := r.dialGroup(g)
	if err != nil {
		return nil, gid, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return nil, gid, ErrClosed
	}
	if existing, ok := r.caches[gid]; ok {
		// A concurrent op dialed the same group; keep the first session.
		r.mu.Unlock()
		c.Close()
		return existing, gid, nil
	}
	r.caches[gid] = c
	r.mu.Unlock()
	return c, gid, nil
}

// dialGroup opens one group session: DialReplicas when the group is
// replicated (NOT_MASTER failover), a plain Dial otherwise.
func (r *Router) dialGroup(g shard.Group) (*Cache, error) {
	cfg := r.cfg
	cfg.Redial = nil
	cfg.cursor = nil
	if len(g.Replicas) == 1 {
		return Dial(g.Replicas[0], cfg)
	}
	cfg.Replicas = g.Replicas
	return DialReplicas(cfg)
}

// do routes one operation by path, following NOT_OWNER redirects: the
// refused attempt refetches the routing table from the refusing group
// when the server's epoch is newer, then retries against the named
// owner.
func (r *Router) do(path string, op func(*Cache) error) error {
	forced := -1
	var lastErr error
	for attempt := 0; attempt <= routerRedirectBudget; attempt++ {
		c, gid, err := r.cacheFor(path, forced)
		if err != nil {
			return err
		}
		err = op(c)
		var no NotOwnerError
		if !errors.As(err, &no) {
			return err
		}
		lastErr = err
		atomic.AddInt64(&r.redirects, 1)
		r.refreshFrom(c, no.Epoch)
		if no.Group != gid {
			forced = no.Group
		} else {
			forced = -1 // refusal named itself (epoch raced); re-route
		}
	}
	return fmt.Errorf("client: redirect budget exhausted for %s: %w", path, lastErr)
}

// refreshFrom refetches the ring from a connected session when the
// server hinted at an epoch we don't have. A fetched ring is adopted
// only if it does not regress the epoch.
func (r *Router) refreshFrom(c *Cache, hintEpoch uint64) {
	r.mu.Lock()
	cur := r.ring.Epoch
	r.mu.Unlock()
	if hintEpoch < cur {
		return // the refuser is the stale one; keep our table
	}
	ring, err := c.FetchRing()
	if err != nil {
		return // best-effort: the forced-group retry still converges
	}
	r.adopt(ring)
}

// adopt installs a fetched ring unless it would regress the epoch, and
// drops cached sessions for groups whose replica set changed (or that
// left the ring) — they are dialed to addresses the new table no
// longer stands behind, and keeping them would re-route every retry at
// the same wrong server.
func (r *Router) adopt(ring *shard.Ring) {
	r.mu.Lock()
	if ring.Epoch < r.ring.Epoch {
		r.mu.Unlock()
		return
	}
	var stale []*Cache
	for gid, c := range r.caches {
		g, ok := ring.Group(gid)
		if old, okOld := r.ring.Group(gid); ok && okOld && sameReplicas(old.Replicas, g.Replicas) {
			continue
		}
		stale = append(stale, c)
		delete(r.caches, gid)
	}
	r.ring = ring
	r.mu.Unlock()
	for _, c := range stale {
		c.Close()
	}
}

func sameReplicas(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RefreshRing refetches the routing table from the group currently
// owning "/" (any group serves the same snapshot) and adopts it if it
// does not regress the epoch.
func (r *Router) RefreshRing() (*shard.Ring, error) {
	c, _, err := r.cacheFor("/", -1)
	if err != nil {
		return nil, err
	}
	ring, err := c.FetchRing()
	if err != nil {
		return nil, err
	}
	r.adopt(ring)
	return r.Ring(), nil
}

// Lookup routes a path resolution to its owning group.
func (r *Router) Lookup(path string) (vfs.Attr, error) {
	var attr vfs.Attr
	err := r.do(path, func(c *Cache) error {
		var e error
		attr, e = c.Lookup(path)
		return e
	})
	return attr, err
}

// Read routes a file read to its owning group.
func (r *Router) Read(path string) ([]byte, error) {
	var data []byte
	err := r.do(path, func(c *Cache) error {
		var e error
		data, e = c.Read(path)
		return e
	})
	return data, err
}

// Write routes a write-through to its owning group.
func (r *Router) Write(path string, data []byte) error {
	return r.do(path, func(c *Cache) error { return c.Write(path, data) })
}

// ReadDir routes a directory listing to its owning group.
func (r *Router) ReadDir(path string) ([]vfs.DirEntry, error) {
	var ents []vfs.DirEntry
	err := r.do(path, func(c *Cache) error {
		var e error
		ents, e = c.ReadDir(path)
		return e
	})
	return ents, err
}

// Create routes a file creation to its owning group.
func (r *Router) Create(path string, perm vfs.Perm) (vfs.Attr, error) {
	var attr vfs.Attr
	err := r.do(path, func(c *Cache) error {
		var e error
		attr, e = c.Create(path, perm)
		return e
	})
	return attr, err
}

// Mkdir creates a directory on EVERY group, not just the path's owner:
// directories are the namespace skeleton — files under one directory
// hash across all groups, and cross-shard renames resolve the
// destination parent on the destination group — so each group keeps a
// local copy of the tree. The owning group's attr is returned.
func (r *Router) Mkdir(path string, perm vfs.Perm) (vfs.Attr, error) {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	owner := ring.Lookup(path)
	var attr vfs.Attr
	for _, gid := range ring.GroupIDs() {
		c, _, err := r.cacheFor(path, gid)
		if err != nil {
			return vfs.Attr{}, err
		}
		a, err := c.Mkdir(path, perm)
		if err != nil {
			return vfs.Attr{}, err
		}
		if gid == owner {
			attr = a
		}
	}
	return attr, nil
}

// Remove routes a removal to its owning group.
func (r *Router) Remove(path string) error {
	return r.do(path, func(c *Cache) error { return c.Remove(path) })
}

// Rename routes a rename to the SOURCE path's owning group; when the
// destination hashes to another group the source master moves the file
// there server-side, so the client sees one call either way.
func (r *Router) Rename(oldPath, newPath string) error {
	return r.do(oldPath, func(c *Cache) error { return c.Rename(oldPath, newPath) })
}

// Stat routes an attribute fetch to its owning group.
func (r *Router) Stat(path string) (vfs.Attr, error) {
	var attr vfs.Attr
	err := r.do(path, func(c *Cache) error {
		var e error
		attr, e = c.Stat(path)
		return e
	})
	return attr, err
}

// SetPerm routes a permission change to its owning group.
func (r *Router) SetPerm(path, owner string, perm vfs.Perm) error {
	return r.do(path, func(c *Cache) error { return c.SetPerm(path, owner, perm) })
}

// GroupCache exposes the connected session for a group (dialing it if
// absent) — the escape hatch for per-group operations like ExtendAll
// or metrics collection in drivers and tests.
func (r *Router) GroupCache(gid int) (*Cache, error) {
	r.mu.Lock()
	g, ok := r.ring.Group(gid)
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("client: unknown group %d", gid)
	}
	_ = g
	c, _, err := r.cacheFor("", gid)
	return c, err
}

// FetchRing asks this session's server for its current ring snapshot.
// Only meaningful against sharded servers (the Router's sessions);
// unsharded servers answer with an error.
func (c *Cache) FetchRing() (*shard.Ring, error) {
	f, err := c.call(proto.TRing, nil)
	if err != nil {
		return nil, err
	}
	defer f.Recycle()
	if f.Type != proto.TRingRep {
		return nil, fmt.Errorf("client: unexpected ring reply type %d", f.Type)
	}
	return shard.Decode(proto.NewDec(f.Payload))
}
