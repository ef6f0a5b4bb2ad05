package core

import (
	"sync"
	"time"

	"leases/internal/vfs"
)

// ShardedManager is a concurrency-safe lease manager built from N
// lock-striped Manager shards, keyed by hash(datum) mod N. The paper's
// storage argument (§2) makes lease state embarrassingly shardable:
// every lease record and every pending-write queue is per-datum, and no
// protocol rule couples two data (multi-datum writes are the driver's
// business — internal/server acquires clearance datum by datum in a
// global order). Each shard owns a full Manager — lease table, pending
// queues, deadline heap and metrics — under its own mutex, so requests
// for different data proceed in parallel and the hot grant path never
// touches a global lock.
//
// WriteIDs stay globally unique and self-routing: shard i allocates
// i+1, i+1+N, i+1+2N, …, so Approve/WriteApplied/CancelWrite find their
// shard by (id-1) mod N without consulting a shared table.
//
// Cross-shard reads (Snapshot, LeaseCount, Metrics, ReadyWrites without
// a shard index) visit shards one at a time; they are consistent per
// shard, not globally atomic — exactly what soft state that expires by
// the passage of time tolerates.
//
// The single-threaded Manager remains the right choice for
// deterministic drivers (internal/tracesim); ShardedManager is for
// concurrent drivers like the TCP server.
type ShardedManager struct {
	shards []*managerShard
}

// managerShard pads each shard to its own cache lines so shard locks on
// neighbouring shards do not false-share.
type managerShard struct {
	mu  sync.Mutex
	mgr *Manager
	_   [64]byte
}

// DefaultShards is the shard count used when a driver passes 0: enough
// stripes that a few dozen concurrent clients rarely collide, cheap
// enough that cross-shard sweeps stay trivial.
const DefaultShards = 16

// NewShardedManager returns a sharded manager with n shards (0 means
// DefaultShards) granting leases of the given term. The options are
// applied to every shard (a recovery window blocks writes on all of
// them).
func NewShardedManager(n int, term time.Duration, opts ...ManagerOption) *ShardedManager {
	if n <= 0 {
		n = DefaultShards
	}
	s := &ShardedManager{shards: make([]*managerShard, n)}
	for i := range s.shards {
		m := NewManager(term, opts...)
		m.nextID = WriteID(i + 1)
		m.idStride = WriteID(n)
		s.shards[i] = &managerShard{mgr: m}
	}
	return s
}

// Shards reports the shard count.
func (s *ShardedManager) Shards() int { return len(s.shards) }

// ShardFor reports which shard owns d, for drivers that run per-shard
// deadline timers.
func (s *ShardedManager) ShardFor(d vfs.Datum) int {
	// FNV-1a over the datum's kind and node. Node IDs are small and
	// sequential; FNV spreads them so neighbouring files do not pile
	// onto neighbouring shards.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(d.Kind)
	h *= prime64
	n := uint64(d.Node)
	for i := 0; i < 8; i++ {
		h ^= n & 0xff
		h *= prime64
		n >>= 8
	}
	return int(h % uint64(len(s.shards)))
}

// ShardForWrite reports which shard owns the identified write.
func (s *ShardedManager) ShardForWrite(id WriteID) int {
	return int(uint64(id-1) % uint64(len(s.shards)))
}

func (s *ShardedManager) shard(d vfs.Datum) *managerShard {
	return s.shards[s.ShardFor(d)]
}

func (s *ShardedManager) writeShard(id WriteID) *managerShard {
	return s.shards[s.ShardForWrite(id)]
}

// Grant records (or extends) a lease on d for client. See Manager.Grant.
// Once a term it first sweeps the shard's expired records (Compact), so
// a server's record count tracks its live leases.
func (s *ShardedManager) Grant(client ClientID, d vfs.Datum, now time.Time) Grant {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.mgr.compactDue(now)
	return sh.mgr.Grant(client, d, now)
}

// GrantBatch grants leases on several data at once, locking each datum's
// shard in turn. See Manager.GrantBatch.
func (s *ShardedManager) GrantBatch(client ClientID, data []vfs.Datum, now time.Time) []Grant {
	out := make([]Grant, len(data))
	for i, d := range data {
		out[i] = s.Grant(client, d, now)
	}
	return out
}

// Release relinquishes client's leases on the given data. See
// Manager.Release.
func (s *ShardedManager) Release(client ClientID, data []vfs.Datum, now time.Time) {
	for _, d := range data {
		sh := s.shard(d)
		sh.mu.Lock()
		sh.mgr.Release(client, []vfs.Datum{d}, now)
		sh.mu.Unlock()
	}
}

// SubmitWrite asks to write d on behalf of writer. See
// Manager.SubmitWrite.
func (s *ShardedManager) SubmitWrite(writer ClientID, d vfs.Datum, now time.Time) WriteDisposition {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.SubmitWrite(writer, d, now)
}

// SubmitWriteHeld always enqueues, for drivers that apply the write
// outside the shard lock. See Manager.SubmitWriteHeld.
func (s *ShardedManager) SubmitWriteHeld(writer ClientID, d vfs.Datum, now time.Time) WriteDisposition {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.SubmitWriteHeld(writer, d, now)
}

// Approve records client's approval of the identified write. See
// Manager.Approve.
func (s *ShardedManager) Approve(client ClientID, id WriteID, now time.Time) bool {
	sh := s.writeShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.Approve(client, id, now)
}

// WriteApplied tells the manager the driver has applied the write. See
// Manager.WriteApplied.
func (s *ShardedManager) WriteApplied(id WriteID, now time.Time) {
	sh := s.writeShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.mgr.WriteApplied(id, now)
}

// CancelWrite abandons a queued write. See Manager.CancelWrite.
func (s *ShardedManager) CancelWrite(id WriteID, now time.Time) {
	sh := s.writeShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.mgr.CancelWrite(id, now)
}

// ReadyWritesShard returns the applicable writes owned by one shard,
// sorted by ID. Drivers running a deadline timer per shard drain each
// shard independently.
func (s *ShardedManager) ReadyWritesShard(shard int, now time.Time) []WriteID {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.ReadyWrites(now)
}

// ReadyWrites returns the applicable writes across every shard, sorted
// by ID. Shards are visited one at a time; use ReadyWritesShard from
// per-shard timers to avoid sweeping.
func (s *ShardedManager) ReadyWrites(now time.Time) []WriteID {
	var out []WriteID
	for i := range s.shards {
		out = append(out, s.ReadyWritesShard(i, now)...)
	}
	// Shard-strided IDs interleave; restore global ID order.
	sortWriteIDs(out)
	return out
}

// NextDeadlineShard reports the earliest instant a write owned by one
// shard may become ready by expiry.
func (s *ShardedManager) NextDeadlineShard(shard int) (time.Time, bool) {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.NextDeadline()
}

// NextDeadline reports the earliest deadline across all shards.
func (s *ShardedManager) NextDeadline() (time.Time, bool) {
	var earliest time.Time
	found := false
	for i := range s.shards {
		dl, ok := s.NextDeadlineShard(i)
		if ok && (!found || dl.Before(earliest)) {
			earliest, found = dl, true
		}
	}
	return earliest, found
}

// Pending returns the queued writes for a datum in application order.
func (s *ShardedManager) Pending(d vfs.Datum) []PendingWrite {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.Pending(d)
}

// Holders returns the clients holding unexpired leases on d, sorted.
func (s *ShardedManager) Holders(d vfs.Datum, now time.Time) []ClientID {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.Holders(d, now)
}

// HoldsLease reports whether client holds an unexpired lease on d.
func (s *ShardedManager) HoldsLease(client ClientID, d vfs.Datum, now time.Time) bool {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.HoldsLease(client, d, now)
}

// Metrics returns the event counters summed across shards. Each shard
// is read under its own lock; the sum is per-shard consistent rather
// than a global atomic snapshot.
func (s *ShardedManager) Metrics() ManagerMetrics {
	var out ManagerMetrics
	for _, sh := range s.shards {
		sh.mu.Lock()
		m := sh.mgr.Metrics()
		sh.mu.Unlock()
		out.Grants += m.Grants
		out.Refusals += m.Refusals
		out.WritesImmediate += m.WritesImmediate
		out.WritesDeferred += m.WritesDeferred
		out.ApprovalsApplied += m.ApprovalsApplied
		out.ExpiryReleases += m.ExpiryReleases
		out.Releases += m.Releases
	}
	return out
}

// ShardMetrics returns each shard's event counters separately, in shard
// order — the per-stripe view that makes shard imbalance visible (a hot
// datum shows up as one stripe carrying most of the grants or
// deferrals). Each shard is read under its own lock; the slice is
// per-shard consistent rather than a global atomic snapshot.
func (s *ShardedManager) ShardMetrics() []ManagerMetrics {
	out := make([]ManagerMetrics, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.mgr.Metrics()
		sh.mu.Unlock()
	}
	return out
}

// MaxTermGranted reports the longest lease term granted by any shard —
// the value a server persists for crash recovery.
func (s *ShardedManager) MaxTermGranted() time.Duration {
	var max time.Duration
	for _, sh := range s.shards {
		sh.mu.Lock()
		if t := sh.mgr.MaxTermGranted(); t > max {
			max = t
		}
		sh.mu.Unlock()
	}
	return max
}

// Recovering reports whether the manager is inside a post-restart
// recovery window at now. All shards share the window.
func (s *ShardedManager) Recovering(now time.Time) bool {
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.Recovering(now)
}

// LeaseCount reports the number of lease records across all shards.
func (s *ShardedManager) LeaseCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.mgr.LeaseCount()
		sh.mu.Unlock()
	}
	return n
}

// Compact discards expired lease records shard by shard. No global
// pause: each shard is swept under its own lock while the others keep
// serving.
func (s *ShardedManager) Compact(now time.Time) {
	for i := range s.shards {
		s.CompactShard(i, now)
	}
}

// CompactShard sweeps one shard, for drivers amortizing compaction
// incrementally across timer ticks.
func (s *ShardedManager) CompactShard(shard int, now time.Time) {
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.mgr.Compact(now)
}

// Snapshot returns every live lease record across shards, sorted by
// datum then client (the admin plane's lease table).
func (s *ShardedManager) Snapshot(now time.Time) []LeaseSnapshot {
	var out []LeaseSnapshot
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.mgr.Snapshot(now)...)
		sh.mu.Unlock()
	}
	sortSnapshots(out)
	return out
}

// WriteReady reports whether the identified write may be applied at now.
// See Manager.WriteReady.
func (s *ShardedManager) WriteReady(id WriteID, now time.Time) bool {
	sh := s.writeShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.mgr.WriteReady(id, now)
}
