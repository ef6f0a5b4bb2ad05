package core

import (
	"testing"
	"time"
)

// SubmitWriteHeld is the concurrent-driver variant used by the TCP
// server: it must enqueue even when the datum is unleased, so that no
// grant can slip in between clearance and application.
func TestSubmitWriteHeldBlocksGrantsUntilApplied(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	disp := m.SubmitWriteHeld("w", datumA, now)
	if disp.Ready {
		t.Fatal("held submission reported Ready")
	}
	// No conflicting leases: releasable immediately...
	ready := m.ReadyWrites(now)
	if len(ready) != 1 || ready[0] != disp.WriteID {
		t.Fatalf("ReadyWrites = %v", ready)
	}
	// ...but until WriteApplied, the queue entry blocks new grants.
	if g := m.Grant("r", datumA, now); g.Leased {
		t.Fatal("grant slipped in while a held write was pending")
	}
	m.WriteApplied(disp.WriteID, now)
	if g := m.Grant("r", datumA, now); !g.Leased {
		t.Fatal("grants still blocked after apply")
	}
	if m.Metrics().WritesImmediate != 1 {
		t.Fatalf("metrics = %+v, want the unblocked held write counted immediate", m.Metrics())
	}
}

func TestSubmitWriteHeldWithBlockers(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	disp := m.SubmitWriteHeld("w", datumA, now)
	if len(disp.NeedApproval) != 1 || disp.NeedApproval[0] != "r1" {
		t.Fatalf("NeedApproval = %v", disp.NeedApproval)
	}
	if !disp.Deadline.Equal(now.Add(10 * time.Second)) {
		t.Fatalf("Deadline = %v", disp.Deadline)
	}
	if len(m.ReadyWrites(now)) != 0 {
		t.Fatal("ready despite live blocker")
	}
	if !m.Approve("r1", disp.WriteID, now) {
		t.Fatal("approval did not release")
	}
	m.WriteApplied(disp.WriteID, now)
	if m.Metrics().WritesDeferred != 1 {
		t.Fatalf("metrics = %+v", m.Metrics())
	}
}

func TestSubmitWriteHeldInfiniteBlocker(t *testing.T) {
	m := NewManager(FixedTerm(Infinite))
	now := epoch()
	m.Grant("r1", datumA, now)
	disp := m.SubmitWriteHeld("w", datumA, now)
	if !disp.Deadline.IsZero() {
		t.Fatalf("Deadline = %v, want zero (approval-only)", disp.Deadline)
	}
	m.CancelWrite(disp.WriteID, now)
}

func TestSubmitWriteHeldDuringRecovery(t *testing.T) {
	now := epoch()
	m := NewManager(FixedTerm(time.Second), WithRecoveryWindow(now.Add(5*time.Second)))
	disp := m.SubmitWriteHeld("w", datumA, now)
	if len(m.ReadyWrites(now.Add(4*time.Second))) != 0 {
		t.Fatal("held write released during recovery window")
	}
	if got := m.ReadyWrites(now.Add(5*time.Second + time.Millisecond)); len(got) != 1 {
		t.Fatalf("held write not released after recovery: %v", got)
	}
	m.WriteApplied(disp.WriteID, now.Add(6*time.Second))
}

func TestSubmitWriteHeldInstalledDatum(t *testing.T) {
	inst := NewInstalledSet(30 * time.Second)
	inst.Add(datumA)
	m := NewManager(FixedTerm(10*time.Second), WithInstalled(inst))
	now := epoch()
	inst.Extension(now)
	disp := m.SubmitWriteHeld("w", datumA, now.Add(time.Second))
	if len(disp.NeedApproval) != 0 {
		t.Fatalf("installed held write asked approvals: %v", disp.NeedApproval)
	}
	if len(m.ReadyWrites(now.Add(29*time.Second))) != 0 {
		t.Fatal("released before multicast cover expiry")
	}
	if got := m.ReadyWrites(now.Add(30*time.Second + time.Millisecond)); len(got) != 1 {
		t.Fatalf("not released after cover expiry: %v", got)
	}
	m.WriteApplied(disp.WriteID, now.Add(31*time.Second))
}
