package core

import (
	"fmt"
	"sort"
	"time"

	"leases/internal/vfs"
)

// WriteID identifies a pending write at the server.
type WriteID uint64

// Grant is the server's answer to a read or extension request for one
// datum: the term t_s granted (zero if leasing is refused, e.g. while a
// write is waiting) and whether the caller now holds a lease.
type Grant struct {
	Datum vfs.Datum
	Term  time.Duration
	// Leased reports whether a lease was recorded. A zero Term with
	// Leased false means the datum may be used once but not cached.
	Leased bool
}

// WriteDisposition is the server's answer to a write request.
type WriteDisposition struct {
	ID vfs.Datum // echo of the datum, for logging
	// WriteID identifies the queued write when Ready is false.
	WriteID WriteID
	// Ready reports that no conflicting leases exist: the driver applies
	// the write to storage immediately.
	Ready bool
	// NeedApproval lists the leaseholders whose approval must be
	// obtained, in sorted order. The writer itself is never listed: its
	// request carries implicit approval (§3.1), saving one message.
	NeedApproval []ClientID
	// Deadline is the latest expiry among conflicting leases; if
	// approvals do not arrive, the write proceeds at Deadline. The zero
	// Deadline (only possible with infinite-term leases) means the write
	// waits for approvals alone.
	Deadline time.Time
}

// pendingWrite is a queued write awaiting approvals or expiry.
type pendingWrite struct {
	id        WriteID
	writer    ClientID
	datum     vfs.Datum
	waitingOn map[ClientID]time.Time // holder → lease expiry at enqueue
	deadline  time.Time
	// blockedUntil, when non-zero, forbids applying the write before the
	// given instant regardless of approvals: the multicast-lease expiry
	// for an installed-file write, or the recovery window after a
	// restart. No approval can release it because the server holds no
	// per-client record for those leases.
	blockedUntil time.Time
	queuedAt     time.Time
	// countedExpiry dedupes the ExpiryReleases metric across repeated
	// ReadyWrites calls.
	countedExpiry bool
	// scheduled is the instant of this write's live entry in the
	// deadline heap; zero when the write has no timed release (it is in
	// the due set, or only approvals can release it). Maintained by
	// Manager.schedule; see deadlineHeap for the laziness contract.
	scheduled time.Time
}

// datumState is the server's soft state for one datum.
type datumState struct {
	leases  map[ClientID]time.Time // holder → expiry (zero = never)
	pending []*pendingWrite        // FIFO
	// contendedAt is when a write last had to ask another holder for
	// approval; zero if none has since the state was created.
	contendedAt time.Time
}

func (ds *datumState) empty() bool {
	return len(ds.leases) == 0 && len(ds.pending) == 0
}

// ManagerMetrics counts protocol events at the server.
type ManagerMetrics struct {
	Grants           int64 // leases granted or extended
	Refusals         int64 // grants refused (write pending or zero term)
	WritesImmediate  int64 // writes applied with no conflicting leases
	WritesDeferred   int64 // writes queued behind leases
	ApprovalsApplied int64 // approvals received and recorded
	ExpiryReleases   int64 // writes unblocked by lease expiry
	Releases         int64 // leases relinquished voluntarily
}

// Manager is the server side of the lease protocol. It tracks which
// client holds a lease over which datum and defers conflicting writes
// until every leaseholder approves or its lease expires (§2). Manager is
// not safe for concurrent use; drivers serialize access (the simulator is
// single-threaded, the TCP server wraps it in a mutex).
//
// Manager holds soft state only. The storage substrate (internal/vfs) is
// not referenced: drivers apply writes to storage when the Manager says
// they may proceed.
type Manager struct {
	term   time.Duration
	data   map[vfs.Datum]*datumState
	writes map[WriteID]*pendingWrite
	nextID WriteID
	// idStride spaces consecutive WriteIDs; 1 for a standalone manager.
	// A ShardedManager gives shard i the IDs i+1, i+1+N, i+1+2N, … so
	// IDs stay unique across shards and route back by (id-1) mod N.
	idStride WriteID
	// dl schedules pending writes' earliest release-by-time instants;
	// due holds writes whose deadlines have passed (or that never had
	// timed blockers) and that await application. Together they replace
	// the seed's O(all-data) scans in ReadyWrites and NextDeadline.
	dl  deadlineHeap
	due map[WriteID]struct{}
	// maxTerm is the longest term ever granted; a recovering server
	// delays writes for this long (§2).
	maxTerm time.Duration
	// recoverUntil blocks all writes until the given instant after a
	// restart, honouring leases granted before the crash.
	recoverUntil time.Time
	// stretch lets an uncontended renewal run ReuseFactor terms; see
	// WithReuseStretch.
	stretch bool
	// nextCompact is when compactDue next sweeps.
	nextCompact time.Time
	metrics     ManagerMetrics
	installed   *InstalledSet
	// freeStates and freeWrites recycle the per-datum state and queue
	// entry an unshared held write creates and discards, so that path —
	// the common one — allocates nothing once warm.
	freeStates []*datumState
	freeWrites []*pendingWrite
}

// maxFree bounds each recycling list.
const maxFree = 64

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithRecoveryWindow makes the manager honour unknown pre-crash leases by
// refusing to apply any write before the given instant. Use after a
// restart, passing now + the persisted maximum granted term: "it delays
// writes to all files for that period" (§2).
func WithRecoveryWindow(until time.Time) ManagerOption {
	return func(m *Manager) { m.recoverUntil = until }
}

// WithInstalled attaches an installed-file set (§4) to the manager.
func WithInstalled(set *InstalledSet) ManagerOption {
	return func(m *Manager) { m.installed = set }
}

// ReuseFactor is how many terms a stretched renewal lasts (see
// WithReuseStretch), and so the multiple of the term a recovery
// window or a replica's term floor must cover once stretching is on.
const ReuseFactor = 4

// WithReuseStretch makes a renewal of a live lease last ReuseFactor
// terms, unless a write on the datum had to ask another holder
// for approval within that span. A renewal of a live lease means the
// datum served a hit within its term; a datum nobody else writes has an
// unbounded benefit factor (§3.1), so only the §2 fault bound limits its
// term. A fresh grant keeps the term.
func WithReuseStretch() ManagerOption {
	return func(m *Manager) { m.stretch = true }
}

// NewManager returns a manager granting leases of the given term (§4's
// t_s). A term of zero or less grants no caching rights: every datum may
// be read once.
func NewManager(term time.Duration, opts ...ManagerOption) *Manager {
	m := &Manager{
		term:     term,
		data:     make(map[vfs.Datum]*datumState),
		writes:   make(map[WriteID]*pendingWrite),
		nextID:   1,
		idStride: 1,
		due:      make(map[WriteID]struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Metrics returns a copy of the event counters.
func (m *Manager) Metrics() ManagerMetrics { return m.metrics }

// MaxTermGranted reports the longest lease term the manager has ever
// granted. A crash-recovery window must cover it (§2); the TCP server
// covers it from its configuration instead, by persisting the longest
// term the manager can grant before the first grant.
func (m *Manager) MaxTermGranted() time.Duration { return m.maxTerm }

// Recovering reports whether the manager is still inside a post-restart
// recovery window at now.
func (m *Manager) Recovering(now time.Time) bool { return now.Before(m.recoverUntil) }

func (m *Manager) state(d vfs.Datum) *datumState {
	ds, ok := m.data[d]
	if !ok {
		if n := len(m.freeStates); n > 0 {
			ds, m.freeStates = m.freeStates[n-1], m.freeStates[:n-1]
		} else {
			ds = &datumState{leases: make(map[ClientID]time.Time)}
		}
		m.data[d] = ds
	}
	return ds
}

// Grant records (or extends) a lease on d for client and returns the
// term granted. While a write is waiting on d, no new lease is granted —
// the anti-starvation rule of §2 footnote 1 — and the datum may be read
// once without caching. Installed data are never granted per-client
// leases; clients cover them through the multicast extension instead.
// With WithReuseStretch, an extension of a live lease on a datum no write
// has contended for ReuseFactor terms runs ReuseFactor terms.
func (m *Manager) Grant(client ClientID, d vfs.Datum, now time.Time) Grant {
	if m.installed != nil && m.installed.Contains(d) {
		// Per-client record elimination (§4): no per-client lease is
		// recorded for an installed datum. A fetch is granted the
		// remainder of the current multicast cover — the client is
		// covered exactly as if it had heard the last extension — and
		// future extensions arrive by multicast.
		if exp, ok := m.installed.CoveredUntil(d); ok && !Expired(exp, now) && !exp.IsZero() {
			m.metrics.Grants++
			return Grant{Datum: d, Term: exp.Sub(now), Leased: true}
		}
		m.metrics.Refusals++
		return Grant{Datum: d}
	}
	ds := m.state(d)
	if len(ds.pending) > 0 {
		m.metrics.Refusals++
		m.compactIfEmpty(d, ds)
		return Grant{Datum: d}
	}
	term := m.term
	if term <= 0 {
		m.metrics.Refusals++
		m.compactIfEmpty(d, ds)
		return Grant{Datum: d}
	}
	old, held := ds.leases[client]
	if held && m.stretch && !Expired(old, now) && term < Infinite/ReuseFactor &&
		(ds.contendedAt.IsZero() || now.Sub(ds.contendedAt) > ReuseFactor*term) {
		term *= ReuseFactor
	}
	expiry := ExpiryAt(now, term)
	// An extension never shortens an existing lease.
	if held {
		expiry = maxExpiry(old, expiry)
	}
	ds.leases[client] = expiry
	if term > m.maxTerm {
		m.maxTerm = term
	}
	m.metrics.Grants++
	return Grant{Datum: d, Term: term, Leased: true}
}

// GrantBatch grants leases on several data at once; the client batches
// its extension requests "so that a single request covers many files"
// (§3.1).
func (m *Manager) GrantBatch(client ClientID, data []vfs.Datum, now time.Time) []Grant {
	out := make([]Grant, len(data))
	for i, d := range data {
		out[i] = m.Grant(client, d, now)
	}
	return out
}

// Release relinquishes client's leases on the given data. Releasing a
// lease the client does not hold is a no-op.
func (m *Manager) Release(client ClientID, data []vfs.Datum, now time.Time) {
	for _, d := range data {
		ds, ok := m.data[d]
		if !ok {
			continue
		}
		if _, held := ds.leases[client]; held {
			delete(ds.leases, client)
			m.metrics.Releases++
			m.promote(d, ds, now)
		}
		m.compactIfEmpty(d, ds)
	}
}

// holders returns the clients other than writer with unexpired leases
// (nil when there are none).
func (ds *datumState) holders(writer ClientID, now time.Time) map[ClientID]time.Time {
	var out map[ClientID]time.Time
	for c, exp := range ds.leases {
		if c == writer || Expired(exp, now) {
			continue
		}
		if out == nil {
			out = make(map[ClientID]time.Time)
		}
		out[c] = exp
	}
	return out
}

// SubmitWrite asks to write d on behalf of writer. If no other client
// holds an unexpired lease, the write may be applied immediately
// (Ready=true). Otherwise it is queued and the disposition lists the
// leaseholders to ask for approval plus the expiry deadline after which
// the write proceeds regardless. The writer's own lease is implicit
// approval and is retained: a write-through cache holds the new contents.
func (m *Manager) SubmitWrite(writer ClientID, d vfs.Datum, now time.Time) WriteDisposition {
	ds := m.state(d)

	// Expired leases confer no rights; drop them eagerly so they do not
	// generate approval traffic.
	for c, exp := range ds.leases {
		if Expired(exp, now) {
			delete(ds.leases, c)
		}
	}

	disp := WriteDisposition{ID: d}

	if m.installed != nil && m.installed.Contains(d) {
		// §4: drop the datum from the multicast extension; the write
		// proceeds when the last multicast-granted lease has expired.
		// No approval requests are sent and no per-client state exists.
		blocked := maxDeadline(m.installed.Drop(d), m.recoverUntil)
		if !blocked.After(now) && len(ds.pending) == 0 {
			disp.Ready = true
			m.metrics.WritesImmediate++
			m.compactIfEmpty(d, ds)
			return disp
		}
		pw := m.queue(writer, d, ds, nil, blocked, now)
		disp.WriteID = pw.id
		disp.Deadline = blocked
		m.metrics.WritesDeferred++
		return disp
	}

	holders := ds.holders(writer, now)
	if len(holders) == 0 && len(ds.pending) == 0 && !m.Recovering(now) {
		disp.Ready = true
		m.metrics.WritesImmediate++
		m.compactIfEmpty(d, ds)
		return disp
	}

	var blocked time.Time
	if m.Recovering(now) {
		blocked = m.recoverUntil
	}
	pw := m.queue(writer, d, ds, holders, blocked, now)

	disp.WriteID = pw.id
	disp.Deadline = pw.deadline
	disp.NeedApproval = sortedClients(holders)
	m.metrics.WritesDeferred++
	return disp
}

// SubmitWriteHeld is SubmitWrite for concurrent drivers that cannot
// apply the write atomically with the submission: it always enqueues,
// even when no conflicting lease exists, so that the pending entry keeps
// new leases from being granted between clearance and application. The
// returned disposition always has Ready == false; when the write has no
// blockers, ReadyWrites reports it releasable immediately. The driver
// must eventually call WriteApplied or CancelWrite.
func (m *Manager) SubmitWriteHeld(writer ClientID, d vfs.Datum, now time.Time) WriteDisposition {
	ds := m.state(d)
	for c, exp := range ds.leases {
		if Expired(exp, now) {
			delete(ds.leases, c)
		}
	}
	disp := WriteDisposition{ID: d}
	var blocked time.Time
	if m.installed != nil && m.installed.Contains(d) {
		blocked = m.installed.Drop(d)
	}
	if m.Recovering(now) {
		blocked = maxDeadline(blocked, m.recoverUntil)
	}
	holders := ds.holders(writer, now)
	pw := m.queue(writer, d, ds, holders, blocked, now)
	disp.WriteID = pw.id
	disp.Deadline = pw.deadline
	disp.NeedApproval = sortedClients(holders)
	if len(holders) == 0 && blocked.IsZero() && len(ds.pending) == 1 {
		m.metrics.WritesImmediate++
	} else {
		m.metrics.WritesDeferred++
	}
	return disp
}

// queue enqueues a write by writer on d behind holders' leases and, when
// blocked is set, behind that instant too (an installed-file drop, the
// recovery window): no approval can release it before then, because the
// server holds no per-client record for those leases.
func (m *Manager) queue(writer ClientID, d vfs.Datum, ds *datumState, holders map[ClientID]time.Time, blocked, now time.Time) *pendingWrite {
	var pw *pendingWrite
	if n := len(m.freeWrites); n > 0 {
		pw, m.freeWrites = m.freeWrites[n-1], m.freeWrites[:n-1]
	} else {
		pw = new(pendingWrite)
	}
	*pw = pendingWrite{
		id:           m.allocWrite(),
		writer:       writer,
		datum:        d,
		waitingOn:    holders,
		blockedUntil: blocked,
		queuedAt:     now,
	}
	if len(holders) > 0 {
		ds.contendedAt = now
	}
	// The deadline is the latest blocker expiry; any infinite lease (zero
	// expiry) means there is no deadline — only approvals release.
	pw.deadline = blocked
	for _, exp := range holders {
		if exp.IsZero() {
			pw.deadline = time.Time{}
			break
		}
		pw.deadline = maxDeadline(pw.deadline, exp)
	}
	m.enqueue(pw, ds, now)
	return pw
}

// maxDeadline is maxExpiry for deadlines, except that a zero deadline
// means "no constraint" rather than "never", so the non-zero one wins.
func maxDeadline(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.After(b) {
		return a
	}
	return b
}

func sortedClients(set map[ClientID]time.Time) []ClientID {
	if len(set) == 0 {
		return nil
	}
	out := make([]ClientID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Manager) allocWrite() WriteID {
	id := m.nextID
	m.nextID += m.idStride
	return id
}

func (m *Manager) enqueue(pw *pendingWrite, ds *datumState, now time.Time) {
	ds.pending = append(ds.pending, pw)
	m.writes[pw.id] = pw
	if ds.pending[0] == pw {
		// Only the queue head is schedulable; a write behind another is
		// scheduled by promote when it reaches the head.
		m.schedule(pw, now)
	}
}

// schedule (re)computes pw's earliest release-by-time instant and files
// it: a future instant goes to the deadline heap, a passed or absent one
// puts the write in the due set (it may be applied as soon as a driver
// asks), and an infinite blocker leaves it unfiled — only an approval
// can release it, and that approval reschedules. Callers must only pass
// queue-head writes. A reschedule changes scheduled, so the write's
// older heap entries turn stale (normally deadlines only shrink — leases
// cannot be extended while a write is pending — but Restore may lengthen
// a blocking lease, and both directions are handled).
func (m *Manager) schedule(pw *pendingWrite, now time.Time) {
	var worst time.Time
	for _, exp := range pw.waitingOn {
		if exp.IsZero() {
			// An infinite lease blocks until approved: no timer helps.
			pw.scheduled = time.Time{}
			delete(m.due, pw.id)
			return
		}
		worst = maxDeadline(worst, exp)
	}
	worst = maxDeadline(worst, pw.blockedUntil)
	if m.Recovering(now) {
		worst = maxDeadline(worst, m.recoverUntil)
	}
	if worst.IsZero() || !worst.After(now) {
		pw.scheduled = time.Time{}
		m.due[pw.id] = struct{}{}
		return
	}
	if worst.Equal(pw.scheduled) {
		return
	}
	pw.scheduled = worst
	delete(m.due, pw.id)
	m.dl.push(deadlineEntry{at: worst, id: pw.id})
}

// liveEntry reports whether a heap entry is still authoritative for its
// write: the write is pending and the entry carries its current
// scheduled instant. Stale entries (superseded or applied) are dropped
// by the callers' pop loops.
func (m *Manager) liveEntry(e deadlineEntry) (*pendingWrite, bool) {
	pw, ok := m.writes[e.id]
	if !ok || !e.at.Equal(pw.scheduled) {
		return nil, false
	}
	return pw, true
}

// Approve records that client approves the identified write, having
// invalidated its cached copy. The client's lease on the datum is
// dropped (its copy is gone). It reports whether the write is now ready
// to apply. Approving an unknown or already-ready write is a no-op
// returning false; drivers may see duplicate approvals after retransmits.
func (m *Manager) Approve(client ClientID, id WriteID, now time.Time) bool {
	pw, ok := m.writes[id]
	if !ok {
		return false
	}
	if _, waiting := pw.waitingOn[client]; !waiting {
		return false
	}
	delete(pw.waitingOn, client)
	m.metrics.ApprovalsApplied++
	if ds, ok := m.data[pw.datum]; ok {
		delete(ds.leases, client)
		if len(ds.pending) > 0 && ds.pending[0] == pw {
			// The approval may have shrunk the head write's release
			// deadline (or removed its last timed blocker).
			m.schedule(pw, now)
		}
	}
	return m.writeReady(pw, now)
}

// WriteReady reports whether the identified write may be applied at now
// — what ReadyWrites would say of it, for a driver that holds the ID and
// need not sweep. Unknown writes are not ready.
func (m *Manager) WriteReady(id WriteID, now time.Time) bool {
	pw, ok := m.writes[id]
	return ok && m.writeReady(pw, now)
}

// writeReady reports whether pw may be applied at now: it is at the head
// of its datum's queue, any blocking window (installed-file drop or
// recovery) has passed, and every remaining blocker's lease has expired.
func (m *Manager) writeReady(pw *pendingWrite, now time.Time) bool {
	ds, ok := m.data[pw.datum]
	if !ok || len(ds.pending) == 0 || ds.pending[0] != pw {
		return false
	}
	if m.Recovering(now) {
		return false
	}
	if !pw.blockedUntil.IsZero() && now.Before(pw.blockedUntil) {
		return false
	}
	for _, exp := range pw.waitingOn {
		if !Expired(exp, now) {
			return false
		}
	}
	return true
}

// ReadyWrites returns, sorted by ID, the writes that may be applied at
// now — those whose blocking leases have all expired or been approved,
// including writes released by the passage of an installed-file drop
// deadline or the recovery window. Drivers call this when a deadline
// timer fires. Each returned write is still pending; the driver applies
// it to storage and then calls WriteApplied.
func (m *Manager) ReadyWrites(now time.Time) []WriteID {
	if len(m.dl) == 0 && len(m.due) == 0 {
		return nil
	}
	// Move every write whose deadline has passed from the heap into the
	// due set, dropping stale entries along the way.
	for len(m.dl) > 0 {
		pw, live := m.liveEntry(m.dl[0])
		if !live {
			m.dl.pop()
			continue
		}
		if m.dl[0].at.After(now) {
			break
		}
		m.dl.pop()
		pw.scheduled = time.Time{}
		m.due[pw.id] = struct{}{}
	}
	out := make([]WriteID, 0, len(m.due))
	for id := range m.due {
		pw, ok := m.writes[id]
		if !ok {
			delete(m.due, id)
			continue
		}
		// Not ready despite a passed deadline happens only at the exact
		// expiry instant (a lease is valid through it); keep the entry,
		// a later call re-checks.
		if !m.writeReady(pw, now) {
			continue
		}
		if len(pw.waitingOn) > 0 && !pw.countedExpiry {
			pw.countedExpiry = true
			m.metrics.ExpiryReleases++
		}
		out = append(out, id)
	}
	sortWriteIDs(out)
	return out
}

func sortWriteIDs(ids []WriteID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// NextDeadline reports the earliest instant at which some pending write
// may become ready by expiry, so drivers can arm one timer. The second
// result is false when nothing is pending or every blocker holds an
// infinite lease (only approvals can release those writes).
func (m *Manager) NextDeadline() (time.Time, bool) {
	for len(m.dl) > 0 {
		if _, live := m.liveEntry(m.dl[0]); !live {
			m.dl.pop()
			continue
		}
		return m.dl[0].at, true
	}
	return time.Time{}, false
}

// WriteApplied tells the manager the driver has applied the write to
// storage. The write is dequeued; if another write is queued behind it,
// the driver should immediately consult its disposition via Pending. It
// panics if the write is not at the head of its queue — applying writes
// out of order would reorder conflicting updates.
func (m *Manager) WriteApplied(id WriteID, now time.Time) {
	pw, ok := m.writes[id]
	if !ok {
		panic(fmt.Sprintf("core: WriteApplied(%d): unknown write", id))
	}
	ds := m.data[pw.datum]
	if ds == nil || len(ds.pending) == 0 || ds.pending[0] != pw {
		panic(fmt.Sprintf("core: WriteApplied(%d): write not at queue head", id))
	}
	// Shift down rather than reslice, so a recycled state keeps its
	// queue's capacity.
	ds.pending = ds.pending[:copy(ds.pending, ds.pending[1:])]
	m.retire(pw, ds, now)
}

// retire forgets a write just removed from ds's queue.
func (m *Manager) retire(pw *pendingWrite, ds *datumState, now time.Time) {
	d := pw.datum
	delete(m.writes, pw.id)
	delete(m.due, pw.id)
	if len(m.freeWrites) < maxFree {
		m.freeWrites = append(m.freeWrites, pw)
	}
	m.promote(d, ds, now)
	m.compactIfEmpty(d, ds)
}

// CancelWrite abandons a queued write (e.g. the writer disconnected).
func (m *Manager) CancelWrite(id WriteID, now time.Time) {
	pw, ok := m.writes[id]
	if !ok {
		return
	}
	ds := m.data[pw.datum]
	for i, q := range ds.pending {
		if q == pw {
			ds.pending = append(ds.pending[:i], ds.pending[i+1:]...)
			break
		}
	}
	m.retire(pw, ds, now)
}

// promote refreshes the head pending write's blocker set after the queue
// changes: leases approved or expired while it waited behind another
// write no longer block it. The head is then (re)scheduled on the
// deadline heap, since a write that just reached the head has never been
// scheduled and a shrunk blocker set shrinks the deadline.
func (m *Manager) promote(d vfs.Datum, ds *datumState, now time.Time) {
	if len(ds.pending) == 0 {
		return
	}
	head := ds.pending[0]
	for c, exp := range head.waitingOn {
		live, held := ds.leases[c]
		if !held || Expired(live, now) {
			delete(head.waitingOn, c)
			continue
		}
		head.waitingOn[c] = live
		_ = exp
	}
	m.schedule(head, now)
	_ = d
}

// PendingWrite describes a queued write for drivers and tests.
type PendingWrite struct {
	WriteID   WriteID
	Writer    ClientID
	Datum     vfs.Datum
	WaitingOn []ClientID
	Deadline  time.Time
	QueuedAt  time.Time
}

// Pending returns the queued writes for a datum in application order.
func (m *Manager) Pending(d vfs.Datum) []PendingWrite {
	ds, ok := m.data[d]
	if !ok {
		return nil
	}
	out := make([]PendingWrite, 0, len(ds.pending))
	for _, pw := range ds.pending {
		out = append(out, PendingWrite{
			WriteID:   pw.id,
			Writer:    pw.writer,
			Datum:     pw.datum,
			WaitingOn: sortedClients(pw.waitingOn),
			Deadline:  pw.deadline,
			QueuedAt:  pw.queuedAt,
		})
	}
	return out
}

// Holders returns the clients holding unexpired leases on d, sorted.
func (m *Manager) Holders(d vfs.Datum, now time.Time) []ClientID {
	ds, ok := m.data[d]
	if !ok {
		return nil
	}
	live := make(map[ClientID]time.Time)
	for c, exp := range ds.leases {
		if !Expired(exp, now) {
			live[c] = exp
		}
	}
	return sortedClients(live)
}

// HoldsLease reports whether client holds an unexpired lease on d.
func (m *Manager) HoldsLease(client ClientID, d vfs.Datum, now time.Time) bool {
	ds, ok := m.data[d]
	if !ok {
		return false
	}
	exp, held := ds.leases[client]
	return held && !Expired(exp, now)
}

// Compact discards expired lease records and empty datum states: "short
// lease terms reduce the storage requirements at the server, since the
// record of expired leases could be reclaimed" (§2). It changes no grant
// and no write's release: a datum's state stays while writes are queued
// on it or while its contention mark still decides a renewal's term.
func (m *Manager) Compact(now time.Time) {
	for d, ds := range m.data {
		for c, exp := range ds.leases {
			if Expired(exp, now) {
				delete(ds.leases, c)
			}
		}
		if ds.contendedAt.IsZero() || now.Sub(ds.contendedAt) > ReuseFactor*m.term {
			m.compactIfEmpty(d, ds)
		}
	}
}

// compactDue runs Compact once a term, for drivers on the request path.
func (m *Manager) compactDue(now time.Time) {
	if m.term <= 0 || m.term >= Infinite/ReuseFactor || now.Before(m.nextCompact) {
		return
	}
	m.nextCompact = now.Add(m.term)
	m.Compact(now)
}

func (m *Manager) compactIfEmpty(d vfs.Datum, ds *datumState) {
	if ds.empty() && m.data[d] == ds {
		delete(m.data, d)
		ds.contendedAt = time.Time{}
		if len(m.freeStates) < maxFree {
			m.freeStates = append(m.freeStates, ds)
		}
	}
}

// LeaseCount reports the number of lease records currently held,
// including expired records not yet compacted.
func (m *Manager) LeaseCount() int {
	n := 0
	for _, ds := range m.data {
		n += len(ds.leases)
	}
	return n
}

// LeaseSnapshot is one lease record: a row of the admin plane's lease
// table, and the simulator's "more detailed record of leases on
// persistent storage", the alternative to the max-term recovery rule
// (§2).
type LeaseSnapshot struct {
	Client ClientID
	Datum  vfs.Datum
	Expiry time.Time
}

// Snapshot returns every live lease record, sorted by datum then client.
func (m *Manager) Snapshot(now time.Time) []LeaseSnapshot {
	var out []LeaseSnapshot
	for d, ds := range m.data {
		for c, exp := range ds.leases {
			if !Expired(exp, now) {
				out = append(out, LeaseSnapshot{Client: c, Datum: d, Expiry: exp})
			}
		}
	}
	sortSnapshots(out)
	return out
}

func sortSnapshots(out []LeaseSnapshot) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Datum != b.Datum {
			if a.Datum.Kind != b.Datum.Kind {
				return a.Datum.Kind < b.Datum.Kind
			}
			return a.Datum.Node < b.Datum.Node
		}
		return a.Client < b.Client
	})
}

// Restore reloads lease records from a snapshot taken before a crash.
// With a full snapshot the server need not delay writes for the maximum
// term: it knows exactly which leases to honour.
func (m *Manager) Restore(records []LeaseSnapshot, now time.Time) {
	for _, r := range records {
		if Expired(r.Expiry, now) {
			continue
		}
		ds := m.state(r.Datum)
		if old, ok := ds.leases[r.Client]; ok {
			ds.leases[r.Client] = maxExpiry(old, r.Expiry)
		} else {
			ds.leases[r.Client] = r.Expiry
		}
	}
}
