package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/vfs"
)

func epoch() time.Time { return clock.Epoch }

func TestGrantRecordsLease(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	g := m.Grant("c1", datumA, now)
	if !g.Leased || g.Term != 10*time.Second {
		t.Fatalf("Grant = %+v", g)
	}
	if !m.HoldsLease("c1", datumA, now) {
		t.Fatal("lease not recorded")
	}
	if m.HoldsLease("c1", datumA, now.Add(10*time.Second+time.Nanosecond)) {
		t.Fatal("lease survived its term")
	}
	if m.MaxTermGranted() != 10*time.Second {
		t.Fatalf("MaxTermGranted = %v", m.MaxTermGranted())
	}
}

func TestZeroTermPolicyRefuses(t *testing.T) {
	m := NewManager(FixedTerm(0))
	g := m.Grant("c1", datumA, epoch())
	if g.Leased || g.Term != 0 {
		t.Fatalf("zero-term Grant = %+v", g)
	}
	if m.LeaseCount() != 0 {
		t.Fatal("refused grant left a record")
	}
	if m.Metrics().Refusals != 1 {
		t.Fatalf("Refusals = %d", m.Metrics().Refusals)
	}
}

func TestExtensionNeverShortens(t *testing.T) {
	now := epoch()
	terms := []time.Duration{30 * time.Second, 10 * time.Second}
	i := 0
	m := NewManager(TermFunc(func(vfs.Datum, ClientID, time.Time) time.Duration {
		d := terms[i%len(terms)]
		i++
		return d
	}))
	m.Grant("c1", datumA, now) // 30s
	m.Grant("c1", datumA, now) // 10s — must not shorten the 30s lease
	if !m.HoldsLease("c1", datumA, now.Add(25*time.Second)) {
		t.Fatal("extension shortened an existing lease")
	}
}

func TestInfiniteLeaseNeverExpires(t *testing.T) {
	m := NewManager(FixedTerm(Infinite))
	now := epoch()
	m.Grant("c1", datumA, now)
	if !m.HoldsLease("c1", datumA, now.Add(1000000*time.Hour)) {
		t.Fatal("infinite lease expired")
	}
}

func TestWriteWithNoLeasesIsImmediate(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	disp := m.SubmitWrite("w", datumA, epoch())
	if !disp.Ready {
		t.Fatalf("unleased write not immediate: %+v", disp)
	}
	if m.Metrics().WritesImmediate != 1 {
		t.Fatal("metrics missed immediate write")
	}
}

func TestWritersOwnLeaseIsImplicitApproval(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("w", datumA, now)
	disp := m.SubmitWrite("w", datumA, now.Add(time.Second))
	if !disp.Ready {
		t.Fatalf("write blocked by writer's own lease: %+v", disp)
	}
	// The writer retains its lease: its write-through cache holds the
	// new contents.
	if !m.HoldsLease("w", datumA, now.Add(time.Second)) {
		t.Fatal("writer lost its lease after writing")
	}
}

func TestWriteDeferredBehindOtherLease(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("reader", datumA, now)
	disp := m.SubmitWrite("writer", datumA, now.Add(time.Second))
	if disp.Ready {
		t.Fatal("conflicting write applied immediately")
	}
	if len(disp.NeedApproval) != 1 || disp.NeedApproval[0] != "reader" {
		t.Fatalf("NeedApproval = %v", disp.NeedApproval)
	}
	if !disp.Deadline.Equal(now.Add(10 * time.Second)) {
		t.Fatalf("Deadline = %v, want lease expiry", disp.Deadline)
	}
	if m.Metrics().WritesDeferred != 1 {
		t.Fatal("metrics missed deferred write")
	}
}

func TestApprovalReleasesWrite(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	m.Grant("r2", datumA, now)
	disp := m.SubmitWrite("w", datumA, now.Add(time.Second))
	if len(disp.NeedApproval) != 2 {
		t.Fatalf("NeedApproval = %v", disp.NeedApproval)
	}
	if ready := m.Approve("r1", disp.WriteID, now.Add(2*time.Second)); ready {
		t.Fatal("write ready after only one of two approvals")
	}
	if ready := m.Approve("r2", disp.WriteID, now.Add(2*time.Second)); !ready {
		t.Fatal("write not ready after all approvals")
	}
	// Approving clients invalidated their copies: leases dropped.
	if m.HoldsLease("r1", datumA, now.Add(2*time.Second)) || m.HoldsLease("r2", datumA, now.Add(2*time.Second)) {
		t.Fatal("approving client retained its lease")
	}
	m.WriteApplied(disp.WriteID, now.Add(2*time.Second))
	if len(m.Pending(datumA)) != 0 {
		t.Fatal("write still pending after WriteApplied")
	}
}

func TestDuplicateApprovalIsNoop(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	m.Grant("r2", datumA, now)
	disp := m.SubmitWrite("w", datumA, now)
	m.Approve("r1", disp.WriteID, now)
	if m.Approve("r1", disp.WriteID, now) {
		t.Fatal("duplicate approval released the write")
	}
	if m.Approve("stranger", disp.WriteID, now) {
		t.Fatal("approval from non-holder released the write")
	}
	if m.Approve("r2", 9999, now) {
		t.Fatal("approval of unknown write reported ready")
	}
	if m.Metrics().ApprovalsApplied != 1 {
		t.Fatalf("ApprovalsApplied = %d, want 1", m.Metrics().ApprovalsApplied)
	}
}

func TestExpiryReleasesWrite(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("unreachable", datumA, now)
	disp := m.SubmitWrite("w", datumA, now.Add(time.Second))
	if disp.Ready {
		t.Fatal("write should defer")
	}
	if got := m.ReadyWrites(now.Add(5 * time.Second)); len(got) != 0 {
		t.Fatalf("write ready before lease expiry: %v", got)
	}
	got := m.ReadyWrites(now.Add(10*time.Second + time.Millisecond))
	if len(got) != 1 || got[0] != disp.WriteID {
		t.Fatalf("ReadyWrites after expiry = %v", got)
	}
	if m.Metrics().ExpiryReleases != 1 {
		t.Fatalf("ExpiryReleases = %d", m.Metrics().ExpiryReleases)
	}
	// Repeated polling must not double-count the metric.
	m.ReadyWrites(now.Add(11 * time.Second))
	if m.Metrics().ExpiryReleases != 1 {
		t.Fatal("ExpiryReleases double-counted")
	}
	m.WriteApplied(disp.WriteID, now.Add(11*time.Second))
}

func TestNoNewLeasesWhileWritePending(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	disp := m.SubmitWrite("w", datumA, now.Add(time.Second))
	// Anti-starvation (§2 fn 1): no new leases while the write waits.
	g := m.Grant("r2", datumA, now.Add(2*time.Second))
	if g.Leased {
		t.Fatal("lease granted while write pending — writes can starve")
	}
	// Leases on other data are unaffected.
	if g2 := m.Grant("r2", datumB, now.Add(2*time.Second)); !g2.Leased {
		t.Fatal("pending write on A blocked grants on B")
	}
	m.Approve("r1", disp.WriteID, now.Add(3*time.Second))
	m.WriteApplied(disp.WriteID, now.Add(3*time.Second))
	if g := m.Grant("r2", datumA, now.Add(4*time.Second)); !g.Leased {
		t.Fatal("grants still blocked after write applied")
	}
}

func TestQueuedWritesApplyInOrder(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	d1 := m.SubmitWrite("w1", datumA, now.Add(time.Second))
	d2 := m.SubmitWrite("w2", datumA, now.Add(2*time.Second))
	if d1.Ready || d2.Ready {
		t.Fatal("queued writes reported ready")
	}
	pend := m.Pending(datumA)
	if len(pend) != 2 || pend[0].WriteID != d1.WriteID || pend[1].WriteID != d2.WriteID {
		t.Fatalf("Pending = %+v", pend)
	}
	// r1 approves w1; w2 was queued while r1 still held its lease, but
	// the approval invalidates r1's copy, so w2 must not wait on it.
	if !m.Approve("r1", d1.WriteID, now.Add(3*time.Second)) {
		t.Fatal("w1 not ready after approval")
	}
	// w2 is not ready until w1 applies (ordering).
	if got := m.ReadyWrites(now.Add(3 * time.Second)); len(got) != 1 || got[0] != d1.WriteID {
		t.Fatalf("ReadyWrites = %v, want only w1", got)
	}
	m.WriteApplied(d1.WriteID, now.Add(3*time.Second))
	got := m.ReadyWrites(now.Add(3 * time.Second))
	if len(got) != 1 || got[0] != d2.WriteID {
		t.Fatalf("after w1 applied, ReadyWrites = %v, want w2", got)
	}
	m.WriteApplied(d2.WriteID, now.Add(3*time.Second))
}

func TestWriteAppliedOutOfOrderPanics(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	m.SubmitWrite("w1", datumA, now)
	d2 := m.SubmitWrite("w2", datumA, now)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order WriteApplied did not panic")
		}
	}()
	m.WriteApplied(d2.WriteID, now)
}

func TestWriteAppliedUnknownPanics(t *testing.T) {
	m := NewManager(FixedTerm(time.Second))
	defer func() {
		if recover() == nil {
			t.Fatal("unknown WriteApplied did not panic")
		}
	}()
	m.WriteApplied(42, epoch())
}

func TestCancelWrite(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	d1 := m.SubmitWrite("w1", datumA, now)
	d2 := m.SubmitWrite("w2", datumA, now)
	m.CancelWrite(d1.WriteID, now)
	pend := m.Pending(datumA)
	if len(pend) != 1 || pend[0].WriteID != d2.WriteID {
		t.Fatalf("Pending after cancel = %+v", pend)
	}
	m.CancelWrite(9999, now) // unknown: no-op
	m.Approve("r1", d2.WriteID, now)
	m.WriteApplied(d2.WriteID, now)
}

func TestExpiredLeaseDoesNotBlockWrite(t *testing.T) {
	m := NewManager(FixedTerm(2 * time.Second))
	now := epoch()
	m.Grant("r1", datumA, now)
	disp := m.SubmitWrite("w", datumA, now.Add(3*time.Second))
	if !disp.Ready {
		t.Fatalf("expired lease blocked a write: %+v", disp)
	}
}

func TestReleaseDropsLeaseAndUnblocksWrite(t *testing.T) {
	m := NewManager(FixedTerm(time.Hour))
	now := epoch()
	m.Grant("r1", datumA, now)
	m.Grant("r1", datumB, now)
	disp := m.SubmitWrite("w", datumA, now)
	if disp.Ready {
		t.Fatal("expected deferral")
	}
	m.Release("r1", []vfs.Datum{datumA}, now.Add(time.Second))
	got := m.ReadyWrites(now.Add(time.Second))
	if len(got) != 1 || got[0] != disp.WriteID {
		t.Fatalf("release did not unblock write: %v", got)
	}
	if !m.HoldsLease("r1", datumB, now.Add(time.Second)) {
		t.Fatal("release of A dropped lease on B")
	}
	m.Release("ghost", []vfs.Datum{datumA}, now) // non-holder: no-op
	m.WriteApplied(disp.WriteID, now.Add(time.Second))
}

func TestGrantBatch(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	grants := m.GrantBatch("c1", []vfs.Datum{datumA, datumB, datumD}, now)
	if len(grants) != 3 {
		t.Fatalf("GrantBatch returned %d grants", len(grants))
	}
	for _, g := range grants {
		if !g.Leased {
			t.Fatalf("batch grant refused: %+v", g)
		}
	}
	if m.LeaseCount() != 3 {
		t.Fatalf("LeaseCount = %d, want 3", m.LeaseCount())
	}
}

func TestHolders(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	m.Grant("zeta", datumA, now)
	m.Grant("alpha", datumA, now)
	h := m.Holders(datumA, now)
	if len(h) != 2 || h[0] != "alpha" || h[1] != "zeta" {
		t.Fatalf("Holders = %v, want sorted [alpha zeta]", h)
	}
	if got := m.Holders(datumA, now.Add(time.Minute)); len(got) != 0 {
		t.Fatalf("expired holders listed: %v", got)
	}
	if got := m.Holders(datumB, now); got != nil {
		t.Fatalf("Holders of unleased datum = %v", got)
	}
}

func TestNextDeadline(t *testing.T) {
	m := NewManager(FixedTerm(10 * time.Second))
	now := epoch()
	if _, ok := m.NextDeadline(); ok {
		t.Fatal("idle manager reported a deadline")
	}
	m.Grant("r1", datumA, now)
	m.Grant("r2", datumB, now.Add(5*time.Second))
	m.SubmitWrite("w", datumA, now.Add(time.Second))
	m.SubmitWrite("w", datumB, now.Add(6*time.Second))
	dl, ok := m.NextDeadline()
	if !ok || !dl.Equal(now.Add(10*time.Second)) {
		t.Fatalf("NextDeadline = %v %v, want r1 expiry", dl, ok)
	}
}

func TestNextDeadlineInfiniteLeaseHasNone(t *testing.T) {
	m := NewManager(FixedTerm(Infinite))
	now := epoch()
	m.Grant("r1", datumA, now)
	m.SubmitWrite("w", datumA, now)
	if _, ok := m.NextDeadline(); ok {
		t.Fatal("infinite-lease blocker reported an expiry deadline")
	}
}

func TestRecoveryWindowBlocksWrites(t *testing.T) {
	now := epoch()
	recoverUntil := now.Add(10 * time.Second)
	m := NewManager(FixedTerm(10*time.Second), WithRecoveryWindow(recoverUntil))
	if !m.Recovering(now) {
		t.Fatal("not recovering")
	}
	disp := m.SubmitWrite("w", datumA, now)
	if disp.Ready {
		t.Fatal("write applied during recovery window — pre-crash lease could be violated")
	}
	if !disp.Deadline.Equal(recoverUntil) {
		t.Fatalf("Deadline = %v, want recovery end", disp.Deadline)
	}
	if got := m.ReadyWrites(now.Add(5 * time.Second)); len(got) != 0 {
		t.Fatalf("write ready during recovery: %v", got)
	}
	got := m.ReadyWrites(now.Add(10*time.Second + time.Millisecond))
	if len(got) != 1 {
		t.Fatalf("write not released after recovery window: %v", got)
	}
	// Grants during recovery are safe and allowed.
	if g := m.Grant("c", datumB, now); !g.Leased {
		t.Fatal("grant refused during recovery")
	}
	m.WriteApplied(got[0], now.Add(11*time.Second))
}

func TestSnapshotRestore(t *testing.T) {
	m := NewManager(FixedTerm(time.Minute))
	now := epoch()
	m.Grant("c1", datumA, now)
	m.Grant("c2", datumA, now)
	m.Grant("c1", datumB, now)
	snap := m.Snapshot(now)
	if len(snap) != 3 {
		t.Fatalf("Snapshot has %d records, want 3", len(snap))
	}
	// The detailed-record recovery path: a fresh manager restores the
	// snapshot and immediately honours the old leases without a blanket
	// recovery window.
	m2 := NewManager(FixedTerm(time.Minute))
	m2.Restore(snap, now.Add(time.Second))
	disp := m2.SubmitWrite("w", datumA, now.Add(time.Second))
	if disp.Ready {
		t.Fatal("restored lease did not block write")
	}
	if len(disp.NeedApproval) != 2 {
		t.Fatalf("NeedApproval after restore = %v", disp.NeedApproval)
	}
}

func TestRestoreSkipsExpired(t *testing.T) {
	m := NewManager(FixedTerm(time.Second))
	now := epoch()
	m.Grant("c1", datumA, now)
	snap := m.Snapshot(now)
	m2 := NewManager(FixedTerm(time.Second))
	m2.Restore(snap, now.Add(time.Hour))
	if m2.LeaseCount() != 0 {
		t.Fatal("expired snapshot record restored")
	}
}

func TestCompactReclaimsExpiredRecords(t *testing.T) {
	m := NewManager(FixedTerm(time.Second))
	now := epoch()
	for i := 0; i < 100; i++ {
		m.Grant(ClientID(rune('a'+i%26)), vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(i)}, now)
	}
	if m.LeaseCount() != 100 {
		t.Fatalf("LeaseCount = %d", m.LeaseCount())
	}
	m.Compact(now.Add(2 * time.Second))
	if m.LeaseCount() != 0 {
		t.Fatalf("Compact left %d expired records", m.LeaseCount())
	}
}

func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager(nil) did not panic")
		}
	}()
	NewManager(nil)
}

func TestWriterWaitsBehindInfiniteLeaseUntilApproval(t *testing.T) {
	m := NewManager(FixedTerm(Infinite))
	now := epoch()
	m.Grant("holder", datumA, now)
	disp := m.SubmitWrite("w", datumA, now)
	if disp.Ready {
		t.Fatal("write applied despite infinite lease")
	}
	if !disp.Deadline.IsZero() {
		t.Fatalf("Deadline = %v, want zero (approval-only release)", disp.Deadline)
	}
	if got := m.ReadyWrites(now.Add(1000 * time.Hour)); len(got) != 0 {
		t.Fatal("infinite lease expired")
	}
	if !m.Approve("holder", disp.WriteID, now) {
		t.Fatal("approval did not release write")
	}
	m.WriteApplied(disp.WriteID, now)
}

// BenchmarkLeaseRecordStorage measures the §2 storage claim: "For a
// client holding about one hundred leases, the total is around one
// kilobyte per client."
func BenchmarkLeaseRecordStorage(b *testing.B) {
	const clients = 64
	const leasesPer = 100
	var perClient float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewManager(FixedTerm(10 * time.Second))
		now := time.Now()
		for c := 0; c < clients; c++ {
			id := ClientID(fmt.Sprintf("client-%d", c))
			for l := 0; l < leasesPer; l++ {
				m.Grant(id, vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(l + 2)}, now)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perClient = float64(after.HeapAlloc-before.HeapAlloc) / clients
		runtime.KeepAlive(m)
	}
	b.ReportMetric(perClient, "bytes/client@100leases")
}
