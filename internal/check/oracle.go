package check

import (
	"fmt"

	"leases/internal/chaos"
	"leases/internal/core"
)

// Violation kinds the oracle reports.
const (
	// vStaleRead: a read returned a value older than a write that was
	// already acknowledged when the read began — the §2 invariant.
	vStaleRead = "stale-read"
	// vUnapplied: a read returned a value the server never applied.
	vUnapplied = "unapplied-value"
	// vNonMonotonic: one client observed a file going backwards.
	vNonMonotonic = "non-monotonic-read"
	// vAckedLost: a write was acknowledged without ever being applied.
	vAckedLost = "acked-write-not-applied"
	// vSlowWrite: a write was deferred past the §2 bound (one lease
	// term plus slack), indicating an approval/expiry scheduling bug.
	vSlowWrite = "write-wait-bound"
	// vSpanLeak: a trace segment (or span) stayed open after the
	// execution quiesced — some path ends a request without ending its
	// span.
	vSpanLeak = "span-leak"
	// vSpanOrphan: a recorded span's parent is unknown to the tracer —
	// a context was fabricated or mis-threaded across the wire.
	vSpanOrphan = "span-orphan"
	// vSpanFanout: a write deferral's recorded fan-out disagrees with
	// the approval-push spans actually opened under it.
	vSpanFanout = "span-fanout"
)

// fileModel is the reference model of one file: the full apply log in
// server order, the latest log position of each value, and the newest
// position each client has observed.
type fileModel struct {
	applied []string
	latest  map[string]uint64
	seen    map[core.ClientID]uint64
	// pending holds the values shipped toward a quorum and not (yet)
	// applied by a master.
	pending map[string]bool
}

// oracle is the sequential-consistency checker. It is deliberately
// dead simple — an append-only log per file plus the acked-floor lens
// shared with the chaos harness — so that its verdicts are trustworthy
// independent of the protocol machinery under test.
//
// The check is online: applied() records every server-side store write
// as it happens, acked() raises the file's floor when a writer receives
// its acknowledgement, and readDone() judges each completed read
// against the floor snapshotted when the read began (see
// chaos.FloorChecker for why snapshot-before-read makes this sound
// under concurrency). Positions are log indexes, not store versions, so
// the oracle shares no arithmetic with the code under test.
type oracle struct {
	w     *world
	max   int
	files []*fileModel
	// floors is the acked-floor lens (§2: no read is stale with
	// respect to an approved write).
	floors *chaos.FloorChecker
}

func newOracle(w *world, maxViolations int) *oracle {
	o := &oracle{w: w, max: maxViolations, floors: chaos.NewFloorChecker(w.sc.Files)}
	for i := 0; i < w.sc.Files; i++ {
		o.files = append(o.files, &fileModel{
			latest:  make(map[string]uint64),
			seen:    make(map[core.ClientID]uint64),
			pending: make(map[string]bool),
		})
	}
	return o
}

func (o *oracle) violate(kind, detail string) {
	if len(o.w.out.Violations) >= o.max {
		return
	}
	o.w.out.Violations = append(o.w.out.Violations, Violation{
		Kind:   kind,
		At:     o.w.engine.Now().Sub(o.w.start),
		Detail: detail,
	})
}

// initialApplied seeds a file's starting contents: applied and, by
// definition, acknowledged.
func (o *oracle) initialApplied(file int, value string) {
	o.applied(file, value)
	o.floors.Acked(file, o.files[file].latest[value])
}

// applied records that the server wrote value to the file. Re-applying
// an existing value (an at-least-once duplicate across a server crash)
// appends a new position; latest tracks the newest.
func (o *oracle) applied(file int, value string) {
	fm := o.files[file]
	delete(fm.pending, value)
	fm.applied = append(fm.applied, value)
	fm.latest[value] = uint64(len(fm.applied))
}

// shipped records that a master began replicating a write of value: from
// here on it may take effect even if that master never applies it — the
// write is unacknowledged, and a follower holding it may be promoted.
func (o *oracle) shipped(file int, value string) {
	o.files[file].pending[value] = true
}

// surfaced records that value is file's contents after a promotion's
// merge. A write that was shipped but never applied takes effect here;
// any other value keeps the position it has, so a merge that rolled an
// acknowledged write back reads stale.
func (o *oracle) surfaced(file int, value string) {
	if o.files[file].pending[value] {
		o.applied(file, value)
	}
}

// acked records that client received the server's acknowledgement for
// its write of value, raising the file's floor.
func (o *oracle) acked(client core.ClientID, file int, value string) {
	fm := o.files[file]
	pos, ok := fm.latest[value]
	if !ok {
		o.violate(vAckedLost, fmt.Sprintf("%s got an ack for %q on f%d but the server never applied it", client, value, file))
		return
	}
	o.floors.Acked(file, pos)
}

// readStart snapshots the file's acked floor and the newest position
// this client had observed when the read began; the caller passes both
// back to readDone when the read completes. Snapshotting at start
// makes both lenses sound under concurrency: a write acked — or a
// sibling read completed — while this read was in flight is concurrent
// with it and imposes no ordering obligation.
func (o *oracle) readStart(client core.ClientID, file int) (floor, seen uint64) {
	return o.floors.Floor(file), o.files[file].seen[client]
}

// readDone judges a completed read. floorBefore and seenBefore are the
// readStart snapshots; cached marks a local cache hit (for
// diagnostics).
func (o *oracle) readDone(client core.ClientID, file int, value string, floorBefore, seenBefore uint64, cached bool) {
	fm := o.files[file]
	src := "fetched"
	if cached {
		src = "cache hit"
	}
	pos, ok := fm.latest[value]
	if !ok {
		o.violate(vUnapplied, fmt.Sprintf("%s read %q on f%d (%s), a value the server never applied", client, value, file, src))
		return
	}
	if chaos.FloorViolated(pos, floorBefore) {
		o.violate(vStaleRead, fmt.Sprintf("%s read %q on f%d (%s, apply #%d) after apply #%d was already acknowledged", client, value, file, src, pos, floorBefore))
		return
	}
	if pos < seenBefore {
		o.violate(vNonMonotonic, fmt.Sprintf("%s read apply #%d on f%d (%s) after a read that finished before this one began observed apply #%d", client, pos, file, src, seenBefore))
		return
	}
	if pos > fm.seen[client] {
		fm.seen[client] = pos
	}
}
