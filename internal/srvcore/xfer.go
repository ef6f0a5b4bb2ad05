package srvcore

import (
	"time"

	"leases/internal/vfs"
)

// Xfer is one cross-shard rename staged on this (destination) group: the
// file's bytes and attributes, held invisibly between prepare and
// commit, fenced on the ring epoch the prepare carried.
type Xfer struct {
	Data    []byte
	Owner   string
	Perm    vfs.Perm
	Epoch   uint64
	expires time.Time
}

// stagedTTL bounds how long a prepared transfer may wait for its commit
// before the destination discards it.
func (c *Core) stagedTTL() time.Duration {
	ttl := 2*c.cfg.Term + 10*time.Second
	if c.cfg.WriteTimeout > ttl {
		ttl = c.cfg.WriteTimeout + 10*time.Second
	}
	return ttl
}

// Stage records a prepared transfer for path, sweeping expired ones — a
// source that died between its local commit and the commit push leaves
// its entry to age out.
func (c *Core) Stage(path string, x Xfer, now time.Time) {
	x.expires = now.Add(c.stagedTTL())
	c.mu.Lock()
	for p, st := range c.staged {
		if now.After(st.expires) {
			delete(c.staged, p)
		}
	}
	c.staged[path] = x
	c.mu.Unlock()
}

// TakeStaged removes and returns path's staged transfer if it was
// prepared at epoch and has not expired.
func (c *Core) TakeStaged(path string, epoch uint64, now time.Time) (Xfer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.staged[path]
	if !ok || st.Epoch != epoch || now.After(st.expires) {
		return Xfer{}, false
	}
	delete(c.staged, path)
	return st, true
}

// AbortStaged discards path's staged transfer (source-side failure
// before its commit point).
func (c *Core) AbortStaged(path string, epoch uint64) {
	c.mu.Lock()
	if st, ok := c.staged[path]; ok && st.Epoch == epoch {
		delete(c.staged, path)
	}
	c.mu.Unlock()
}
