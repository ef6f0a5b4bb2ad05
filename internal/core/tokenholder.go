package core

import (
	"time"

	"leases/internal/vfs"
)

// TokenHolder is the client side of the token extension: which data this
// cache may read, which it may write locally (write-back), and which of
// those carry dirty (unflushed) contents. Transport-free and not safe
// for concurrent use, like Holder.
type TokenHolder struct {
	cfg    HolderConfig
	tokens map[vfs.Datum]*heldToken
}

type heldToken struct {
	mode    TokenMode
	expiry  time.Time // local clock, ε deducted; zero = never
	version uint64
	dirty   bool
}

// NewTokenHolder returns an empty token holder.
func NewTokenHolder(cfg HolderConfig) *TokenHolder {
	return &TokenHolder{cfg: cfg, tokens: make(map[vfs.Datum]*heldToken)}
}

// ApplyToken records a granted token, its term judged by Holder's rule
// (HolderConfig.Effective). A zero effective term records nothing.
func (h *TokenHolder) ApplyToken(d vfs.Datum, mode TokenMode, version uint64, term time.Duration, requestedAt, receivedAt time.Time) {
	expiry, ok := h.cfg.Effective(term, requestedAt, receivedAt)
	if !ok {
		delete(h.tokens, d)
		return
	}
	t, ok := h.tokens[d]
	if !ok {
		t = &heldToken{}
		h.tokens[d] = t
	} else {
		expiry = maxExpiry(t.expiry, expiry)
	}
	t.mode = mode
	t.expiry = expiry
	if version > t.version {
		t.version = version
	}
}

// CanRead reports whether the cache may serve a read of d locally.
func (h *TokenHolder) CanRead(d vfs.Datum, now time.Time) bool {
	t, ok := h.tokens[d]
	return ok && !Expired(t.expiry, now)
}

// CanWrite reports whether the cache may buffer a write of d locally —
// a live write token.
func (h *TokenHolder) CanWrite(d vfs.Datum, now time.Time) bool {
	t, ok := h.tokens[d]
	return ok && t.mode == TokenWrite && !Expired(t.expiry, now)
}

// WriteLocal records a local (write-back) write under a live write
// token, marking the datum dirty and bumping the local version. It
// reports false (and records nothing) without a live write token — the
// caller must then write through.
func (h *TokenHolder) WriteLocal(d vfs.Datum, now time.Time) bool {
	if !h.CanWrite(d, now) {
		return false
	}
	t := h.tokens[d]
	t.dirty = true
	t.version++
	return true
}

// Dirty reports whether d carries unflushed local writes.
func (h *TokenHolder) Dirty(d vfs.Datum) bool {
	t, ok := h.tokens[d]
	return ok && t.dirty
}

// DirtyData returns every dirty datum, sorted — the flush set on recall
// or shutdown.
func (h *TokenHolder) DirtyData() []vfs.Datum {
	var out []vfs.Datum
	for d, t := range h.tokens {
		if t.dirty {
			out = append(out, d)
		}
	}
	SortData(out)
	return out
}

// Flushed records that the dirty contents of d reached the server,
// which assigned the given version.
func (h *TokenHolder) Flushed(d vfs.Datum, serverVersion uint64) {
	t, ok := h.tokens[d]
	if !ok {
		return
	}
	t.dirty = false
	if serverVersion > t.version {
		t.version = serverVersion
	}
}

// OnRecall handles a recall of d: it returns whether a flush is needed
// (write token with dirty data) before the ack may be sent. After
// flushing (or immediately when clean), the driver calls Invalidate (the
// requester wanted to write) or keeps a downgraded read token via
// DowngradeLocal (the requester only wanted to read).
func (h *TokenHolder) OnRecall(d vfs.Datum) (mustFlush bool) {
	t, ok := h.tokens[d]
	if !ok {
		return false
	}
	return t.mode == TokenWrite && t.dirty
}

// DowngradeLocal converts a write token to a read token after its dirty
// data has been flushed.
func (h *TokenHolder) DowngradeLocal(d vfs.Datum) bool {
	t, ok := h.tokens[d]
	if !ok || t.mode != TokenWrite || t.dirty {
		return false
	}
	t.mode = TokenRead
	return true
}

// Invalidate discards the token and any cached copy. Invalidating a
// dirty datum loses the buffered writes — the write-back hazard the
// paper's write-through design avoids; callers flush first.
func (h *TokenHolder) Invalidate(d vfs.Datum) {
	delete(h.tokens, d)
}

// ExpiresWithin reports whether the token on d is live at now but will
// expire within lead — the renewal trigger for caches actively using a
// token (the token analogue of anticipatory lease extension, §4).
func (h *TokenHolder) ExpiresWithin(d vfs.Datum, now time.Time, lead time.Duration) bool {
	t, ok := h.tokens[d]
	if !ok || t.expiry.IsZero() || Expired(t.expiry, now) {
		return false
	}
	return !t.expiry.After(now.Add(lead))
}

// Mode reports the held token's mode for d (0 if none), ignoring
// expiry; combine with CanRead/CanWrite for validity.
func (h *TokenHolder) Mode(d vfs.Datum) TokenMode {
	t, ok := h.tokens[d]
	if !ok {
		return 0
	}
	return t.mode
}

// Version reports the local version of d.
func (h *TokenHolder) Version(d vfs.Datum) (uint64, bool) {
	t, ok := h.tokens[d]
	if !ok {
		return 0, false
	}
	return t.version, true
}

// Len reports how many tokens are held.
func (h *TokenHolder) Len() int { return len(h.tokens) }
