// Package core implements the lease protocol of Gray & Cheriton (SOSP
// 1989): the server-side lease Manager and the client-side lease Holder.
//
// A lease is a contract: while a client holds an unexpired lease on a
// datum, the server must obtain that client's approval before the datum
// may be written (§2). The package is transport-free ("sans-IO"): every
// method takes the current time explicitly and returns the messages the
// driver must send, so the same protocol code runs under the
// deterministic trace-driven simulator (internal/tracesim), the real TCP
// server (internal/server), and direct unit tests.
package core

import (
	"math"
	"time"
)

// ClientID names a caching client.
type ClientID string

// Infinite is the lease term that never expires. The revised Andrew file
// system effectively uses this term (§2); it is also the natural encoding
// for the paper's infinite-term baseline.
const Infinite time.Duration = math.MaxInt64

// ExpiryAt computes the instant a lease granted at now with the given
// term expires. For Infinite terms it returns the zero Time, which this
// package uses throughout to mean "never expires".
func ExpiryAt(now time.Time, term time.Duration) time.Time {
	if term >= Infinite {
		return time.Time{}
	}
	return now.Add(term)
}

// Expired reports whether a lease with the given expiry instant has
// expired at now. The zero expiry never expires. A lease is valid through
// its expiry instant and invalid strictly after it.
func Expired(expiry time.Time, now time.Time) bool {
	if expiry.IsZero() {
		return false
	}
	return now.After(expiry)
}

// maxExpiry returns the later of two expiry instants, treating the zero
// value as "never" (always latest).
func maxExpiry(a, b time.Time) time.Time {
	if a.IsZero() || b.IsZero() {
		return time.Time{}
	}
	if a.After(b) {
		return a
	}
	return b
}

// FixedTerm is a lease term. It names the term a driver passes to
// NewManager or NewShardedManager: FixedTerm(0) is the zero-term
// baseline (Sprite, RFS, the Andrew prototype: a consistency check on
// every use); FixedTerm(core.Infinite) is the infinite-term baseline
// (revised Andrew).
type FixedTerm = time.Duration
