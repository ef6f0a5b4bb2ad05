package core

import (
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/vfs"
)

var (
	datumA = vfs.Datum{Kind: vfs.FileData, Node: 10}
	datumB = vfs.Datum{Kind: vfs.FileData, Node: 11}
	datumD = vfs.Datum{Kind: vfs.DirBinding, Node: 2}
)

func TestExpiryAtFinite(t *testing.T) {
	now := clock.Epoch
	e := ExpiryAt(now, 10*time.Second)
	if !e.Equal(now.Add(10 * time.Second)) {
		t.Fatalf("ExpiryAt = %v", e)
	}
}

func TestExpiryAtInfinite(t *testing.T) {
	if !ExpiryAt(clock.Epoch, Infinite).IsZero() {
		t.Fatal("infinite term should produce the zero expiry")
	}
}

func TestExpiredSemantics(t *testing.T) {
	now := clock.Epoch
	exp := now.Add(time.Second)
	if Expired(exp, now) {
		t.Fatal("lease expired before its deadline")
	}
	if Expired(exp, exp) {
		t.Fatal("lease should be valid through its expiry instant")
	}
	if !Expired(exp, exp.Add(time.Nanosecond)) {
		t.Fatal("lease still valid after its expiry instant")
	}
	if Expired(time.Time{}, now.Add(1000*time.Hour)) {
		t.Fatal("zero expiry (never) reported expired")
	}
}
