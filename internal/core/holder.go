package core

import (
	"sort"
	"time"

	"leases/internal/vfs"
)

// HolderConfig sets the timing assumptions under which a client judges
// its leases valid.
type HolderConfig struct {
	// Allowance is ε, the bound on clock asynchrony between this client
	// and the server (§3.1). The client treats its leases as expiring ε
	// early so that a skewed clock cannot make it read stale data.
	Allowance time.Duration
	// Delivery, when positive, is the known one-way delivery time
	// m_prop + 2·m_proc; the effective term is then the paper's
	// t_c = max(0, t_s − (m_prop + 2·m_proc) − ε), anchored at the
	// instant the grant was received. When zero, the client falls back
	// to the strictly safe rule of anchoring the term at the instant it
	// *sent* the request: the server cannot have granted the lease
	// before then, so requestedAt + t_s − ε is always conservative.
	Delivery time.Duration
}

// Lease is a holder's record of one lease: what a cache consults, and
// nothing else, to decide whether its copy of a datum may be used.
type Lease struct {
	Expiry  time.Time // zero = never; local clock, ε already deducted
	Version uint64
	Term    time.Duration // t_s as granted, for renewal bookkeeping
}

// Extend moves the lease out to expiry, covering version: an extension
// never shortens a lease, and a re-fetch never regresses the version.
func (l *Lease) Extend(expiry time.Time, version uint64) {
	l.Expiry = maxExpiry(l.Expiry, expiry)
	if version > l.Version {
		l.Version = version
	}
}

// HolderMetrics counts client-side lease events.
type HolderMetrics struct {
	Grants        int64 // grants/extensions applied
	ZeroEffective int64 // grants whose effective term was zero
	Invalidations int64 // copies invalidated by approval requests
	Expirations   int64 // uses refused because the lease had expired
	Hits          int64 // uses satisfied under a valid lease
}

// Holder is the client side of the lease protocol: the record of which
// data this cache may use without consulting the server, with what
// version, and until when. Like Manager it is transport-free and not
// safe for concurrent use; drivers serialize access.
type Holder struct {
	cfg     HolderConfig
	leases  map[vfs.Datum]*Lease
	metrics HolderMetrics
}

// NewHolder returns an empty holder.
func NewHolder(cfg HolderConfig) *Holder {
	return &Holder{cfg: cfg, leases: make(map[vfs.Datum]*Lease)}
}

// Effective converts a term granted for a request sent at requestedAt
// and answered at receivedAt into a local expiry instant (zero = never),
// and reports whether anything is left of it at receivedAt. With nothing
// left (t_c = 0, or the server refused to lease: term ≤ 0) the datum may
// be used for the access that fetched it but not cached, and the
// returned instant lies in the past.
func (cfg HolderConfig) Effective(term time.Duration, requestedAt, receivedAt time.Time) (time.Time, bool) {
	if term <= 0 {
		return receivedAt.Add(-time.Nanosecond), false
	}
	if term >= Infinite {
		return time.Time{}, true
	}
	anchor, budget := requestedAt, term-cfg.Allowance
	if cfg.Delivery > 0 {
		anchor = receivedAt
		budget -= cfg.Delivery
	}
	if budget <= 0 {
		return anchor.Add(-time.Nanosecond), false
	}
	expiry := anchor.Add(budget)
	return expiry, !Expired(expiry, receivedAt)
}

// Stamped is the local expiry of an unsolicited extension the server
// stamped with its send time: sentAt + term − ε, valid whenever mutual
// clock error is within ε.
func (cfg HolderConfig) Stamped(term time.Duration, sentAt time.Time) time.Time {
	expiry := ExpiryAt(sentAt, term)
	if !expiry.IsZero() {
		expiry = expiry.Add(-cfg.Allowance)
	}
	return expiry
}

// ApplyGrant records a lease granted with term t_s for a request sent at
// requestedAt and answered at receivedAt, covering the datum at the given
// version. A zero term (the server refused to lease) still records the
// version so the driver can use the data once, but leaves nothing valid.
// It returns the effective local expiry (zero = never).
func (h *Holder) ApplyGrant(d vfs.Datum, version uint64, term time.Duration, requestedAt, receivedAt time.Time) time.Time {
	h.metrics.Grants++
	expiry, ok := h.cfg.Effective(term, requestedAt, receivedAt)
	if !ok {
		h.metrics.ZeroEffective++
		delete(h.leases, d)
		return expiry
	}
	l, held := h.leases[d]
	if !held {
		l = &Lease{Expiry: expiry, Version: version}
		h.leases[d] = l
	} else {
		l.Extend(expiry, version)
	}
	l.Term = term
	return l.Expiry
}

// ApplyInstalledExtension processes a periodic multicast extension (§4)
// covering the given installed data for term, stamped with the server's
// send time. Only data this cache already holds a *currently valid*
// lease on (judged at now) are extended — the extension is unsolicited,
// so there is no fetched copy to cover otherwise, and an expired entry's
// value may have been rewritten any number of times since the lease
// lapsed: coverage prolongs live belief, it never resurrects a dead
// copy. (A datum can leave the class on a write and be re-installed
// later; a client that held it across that gap would otherwise have its
// stale copy revived by the first broadcast under the new membership.)
// The expiry is Stamped's. It returns how many held leases were extended.
func (h *Holder) ApplyInstalledExtension(data []vfs.Datum, term time.Duration, sentAt, now time.Time) int {
	if term <= 0 {
		return 0
	}
	expiry := h.cfg.Stamped(term, sentAt)
	n := 0
	for _, d := range data {
		l, ok := h.leases[d]
		if !ok || Expired(l.Expiry, now) {
			continue
		}
		l.Extend(expiry, l.Version)
		n++
	}
	if n > 0 {
		h.metrics.Grants++
	}
	return n
}

// Valid reports whether the holder may use its cached copy of d at now:
// a lease is held and unexpired. It updates the hit/expiry metrics.
func (h *Holder) Valid(d vfs.Datum, now time.Time) bool {
	l, ok := h.leases[d]
	if !ok {
		return false
	}
	if Expired(l.Expiry, now) {
		h.metrics.Expirations++
		return false
	}
	h.metrics.Hits++
	return true
}

// Peek reports lease state without touching metrics: the version held,
// the local expiry, and whether any record exists (possibly expired).
func (h *Holder) Peek(d vfs.Datum) (version uint64, expiry time.Time, held bool) {
	l, ok := h.leases[d]
	if !ok {
		return 0, time.Time{}, false
	}
	return l.Version, l.Expiry, true
}

// Invalidate discards the lease and any claim to a cached copy of d.
// Clients call this when approving a write: "When a leaseholder grants
// approval for a write, it invalidates its local copy of the datum" (§2).
func (h *Holder) Invalidate(d vfs.Datum) {
	if _, ok := h.leases[d]; ok {
		h.metrics.Invalidations++
		delete(h.leases, d)
	}
}

// Update refreshes the cached version under an existing valid lease —
// used by a write-through cache when its own write is applied: the writer
// retains its lease over the new contents.
func (h *Holder) Update(d vfs.Datum, version uint64) {
	if l, ok := h.leases[d]; ok && version > l.Version {
		l.Version = version
	}
}

// Held returns every datum with a lease record (valid or expired),
// sorted. "In general, a cache should extend together all leases over
// all files that it still holds" (§3.1) — this is the batch to extend.
func (h *Holder) Held() []vfs.Datum {
	out := make([]vfs.Datum, 0, len(h.leases))
	for d := range h.leases {
		out = append(out, d)
	}
	SortData(out)
	return out
}

// ExpiringWithin returns the data whose leases are valid now but will
// expire within lead, sorted — the set an anticipatory-extension policy
// renews ahead of use (§4).
func (h *Holder) ExpiringWithin(now time.Time, lead time.Duration) []vfs.Datum {
	var out []vfs.Datum
	deadline := now.Add(lead)
	for d, l := range h.leases {
		if l.Expiry.IsZero() {
			continue
		}
		if !Expired(l.Expiry, now) && !l.Expiry.After(deadline) {
			out = append(out, d)
		}
	}
	SortData(out)
	return out
}

// Drop forgets the lease on d without counting an invalidation — used
// when the cache evicts the datum and relinquishes the lease voluntarily.
func (h *Holder) Drop(d vfs.Datum) { delete(h.leases, d) }

// Len reports how many lease records are held.
func (h *Holder) Len() int { return len(h.leases) }

// Metrics returns a copy of the event counters.
func (h *Holder) Metrics() HolderMetrics { return h.metrics }

// SortData orders data by kind, then node: the deterministic batch order.
func SortData(data []vfs.Datum) {
	sort.Slice(data, func(i, j int) bool {
		if data[i].Kind != data[j].Kind {
			return data[i].Kind < data[j].Kind
		}
		return data[i].Node < data[j].Node
	})
}
