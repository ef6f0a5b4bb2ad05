package tracesim

import (
	"math"
	"testing"
	"time"

	"leases/internal/analytic"
	"leases/internal/core"
	"leases/internal/netsim"
	"leases/internal/trace"
)

func lanNet() netsim.Params {
	return netsim.Params{Prop: 500 * time.Microsecond, Proc: 500 * time.Microsecond, Seed: 1}
}

// singleFilePoisson is the analytic model's world made concrete: one
// client, one file, Poisson reads and writes.
func singleFilePoisson(seed int64, dur time.Duration) *trace.Trace {
	return trace.Poisson(trace.PoissonConfig{
		Seed:      seed,
		Duration:  dur,
		Clients:   1,
		Files:     1,
		ReadRate:  0.864,
		WriteRate: 0.04,
	})
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r := Run(cfg)
	if r.StaleReads != 0 {
		t.Fatalf("CONSISTENCY VIOLATION: %d stale reads", r.StaleReads)
	}
	return r
}

// The simulator must track formula (1): relative consistency load at
// term t equals 1/(1+R·t_c) for the unshared Poisson workload. This is
// the validation the paper performs with its Trace curve ("the proximity
// of this curve to the no-sharing (S = 1) curve ... validates the
// model").
func TestSimulatorMatchesAnalyticModelS1(t *testing.T) {
	tr := singleFilePoisson(42, 2*time.Hour)
	p := analytic.VParams()
	p.Eps = 100 * time.Millisecond

	zero := run(t, Config{Trace: tr, Term: 0, Net: lanNet(), Allowance: p.Eps})
	zeroLoad := zero.ConsistencyLoad
	// Zero term: 2 messages per read (request + response).
	wantZero := 2 * float64(zero.Reads) / tr.Duration.Seconds()
	if math.Abs(zeroLoad-wantZero)/wantZero > 0.01 {
		t.Fatalf("zero-term load %.4f msg/s, want %.4f (2 per read)", zeroLoad, wantZero)
	}

	for _, term := range []time.Duration{2 * time.Second, 10 * time.Second, 30 * time.Second} {
		res := run(t, Config{Trace: tr, Term: term, Net: lanNet(), Allowance: p.Eps})
		got := res.ConsistencyLoad / zeroLoad
		want := p.RelativeLoad(term)
		if math.Abs(got-want) > 0.05*want+0.02 {
			t.Errorf("term %v: relative load %.4f, analytic %.4f", term, got, want)
		}
	}
}

// §3.2 headline, simulated: a 10-second term cuts consistency traffic to
// ≈10% of the zero-term level.
func TestHeadlineTenSecondTermSimulated(t *testing.T) {
	tr := singleFilePoisson(7, 2*time.Hour)
	zero := run(t, Config{Trace: tr, Term: 0, Net: lanNet()})
	ten := run(t, Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
	rel := ten.ConsistencyLoad / zero.ConsistencyLoad
	if rel < 0.07 || rel > 0.14 {
		t.Fatalf("10s-term relative load %.3f, want ≈0.10", rel)
	}
}

// The bursty trace must show the sharper, lower knee the paper reports
// for the real V trace: at a short term it achieves a lower relative
// load than the Poisson workload of equal rates.
func TestBurstyTraceHasSharperKnee(t *testing.T) {
	const term = 5 * time.Second
	poisson := trace.Poisson(trace.PoissonConfig{
		Seed: 3, Duration: 2 * time.Hour, Clients: 1, Files: 1,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	bursty := trace.Bursty(trace.BurstyConfig{
		Seed: 3, Duration: 2 * time.Hour, Clients: 1, Files: 1,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	relFor := func(tr *trace.Trace) float64 {
		z := run(t, Config{Trace: tr, Term: 0, Net: lanNet()})
		s := run(t, Config{Trace: tr, Term: term, Net: lanNet()})
		return s.ConsistencyLoad / z.ConsistencyLoad
	}
	rp, rb := relFor(poisson), relFor(bursty)
	if rb >= rp {
		t.Fatalf("bursty relative load %.4f not below Poisson %.4f at %v", rb, rp, term)
	}
}

func TestCacheHitsGrowWithTerm(t *testing.T) {
	tr := singleFilePoisson(5, time.Hour)
	prev := int64(-1)
	for _, term := range []time.Duration{0, time.Second, 10 * time.Second, core.Infinite} {
		res := run(t, Config{Trace: tr, Term: term, Net: lanNet()})
		if res.CacheHits < prev {
			t.Fatalf("cache hits decreased at term %v", term)
		}
		prev = res.CacheHits
	}
}

func TestInfiniteTermNearZeroSteadyLoad(t *testing.T) {
	tr := singleFilePoisson(11, time.Hour)
	res := run(t, Config{Trace: tr, Term: core.Infinite, Net: lanNet()})
	// One fetch for the file, then silence (writes are by the sole
	// leaseholder, needing no consistency traffic).
	if res.ServerConsistencyMsgs > 4 {
		t.Fatalf("infinite-term consistency messages = %d, want ≤4", res.ServerConsistencyMsgs)
	}
	if res.CacheHits < res.Reads-2 {
		t.Fatalf("hits %d of %d reads under infinite term", res.CacheHits, res.Reads)
	}
}

// Write sharing: S clients all caching one file, every write must gather
// S−1 approvals — and the per-write server message count matches the
// model's S messages (one multicast + S−1 approvals).
func TestSharedWritesGatherApprovals(t *testing.T) {
	tr := trace.Shared(trace.SharedConfig{
		Seed: 9, Duration: 30 * time.Minute, Clients: 10, Files: 1,
		ReadRate: 0.864, WriteRate: 0.01,
	})
	res := run(t, Config{Trace: tr, Term: 30 * time.Second, Net: lanNet()})
	if res.Writes == 0 {
		t.Skip("trace generated no writes")
	}
	if res.WriteDelay.Max == 0 {
		t.Fatal("no write ever waited for approvals despite 10-way sharing")
	}
	// Approval gathering is fast (milliseconds), far below the term:
	// writes must not be waiting out lease expiries when all holders are
	// reachable.
	if res.WriteDelay.Max > time.Second {
		t.Fatalf("max write delay %v — approvals should release writes in milliseconds", res.WriteDelay.Max)
	}
}

// A crashed client's lease delays a conflicting write by at most the
// remaining term (§2, §5).
func TestClientCrashDelaysWriteBoundedByTerm(t *testing.T) {
	const term = 10 * time.Second
	// Client 0 reads the file at t=1s then crashes at 2s; client 1
	// writes at 3s.
	tr := &trace.Trace{
		Duration: 60 * time.Second,
		Clients:  2,
		Files:    1,
		Events: []trace.Event{
			{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
			{At: 3 * time.Second, Client: 1, File: 0, Op: trace.OpWrite},
		},
	}
	res := run(t, Config{
		Trace: tr, Term: term, Net: lanNet(),
		Faults: []Fault{{Kind: ClientCrash, At: 2 * time.Second, Client: 0}},
	})
	if res.Writes != 1 {
		t.Fatalf("writes completed = %d", res.Writes)
	}
	// The lease was granted around t=1s with a 10s term; the write at
	// t=3s waits until ≈11s ⇒ ~8s of added delay.
	if res.WriteDelay.Max < 7*time.Second || res.WriteDelay.Max > term {
		t.Fatalf("write delay %v, want ≈8s (remaining term), ≤ term", res.WriteDelay.Max)
	}
}

// Server crash: after restart the server honours pre-crash leases by
// delaying writes for the maximum granted term (§2).
func TestServerCrashRecoveryWindow(t *testing.T) {
	const term = 10 * time.Second
	tr := &trace.Trace{
		Duration: 120 * time.Second,
		Clients:  2,
		Files:    2,
		Events: []trace.Event{
			{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
			// After restart at t=5s, client 1 writes file 1 (never
			// leased) — still delayed by the blanket recovery window.
			{At: 6 * time.Second, Client: 1, File: 1, Op: trace.OpWrite},
		},
	}
	res := run(t, Config{
		Trace: tr, Term: term, Net: lanNet(),
		Faults: []Fault{
			{Kind: ServerCrash, At: 4 * time.Second},
			{Kind: ServerRestart, At: 5 * time.Second},
		},
	})
	if res.Writes != 1 {
		t.Fatalf("writes completed = %d", res.Writes)
	}
	// Recovery until ≈15s; write submitted ≈6s ⇒ ≈9s delay.
	if res.WriteDelay.Max < 7*time.Second || res.WriteDelay.Max > 11*time.Second {
		t.Fatalf("write delay %v, want ≈9s (recovery window)", res.WriteDelay.Max)
	}
}

// With the detailed persistent record (§2's alternative), the restarted
// server knows file 1 has no lease and applies the write immediately.
func TestServerCrashDetailedRecovery(t *testing.T) {
	const term = 10 * time.Second
	tr := &trace.Trace{
		Duration: 120 * time.Second,
		Clients:  2,
		Files:    2,
		Events: []trace.Event{
			{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
			{At: 6 * time.Second, Client: 1, File: 1, Op: trace.OpWrite},
			// File 0 is still leased by client 0: this write must wait.
			{At: 6 * time.Second, Client: 1, File: 0, Op: trace.OpWrite},
		},
	}
	res := run(t, Config{
		Trace: tr, Term: term, Net: lanNet(), DetailedRecovery: true,
		Faults: []Fault{
			{Kind: ServerCrash, At: 4 * time.Second},
			{Kind: ServerRestart, At: 5 * time.Second},
		},
	})
	if res.Writes != 2 {
		t.Fatalf("writes completed = %d", res.Writes)
	}
	if res.WriteDelay.Min > 50*time.Millisecond {
		t.Fatalf("unleased write delayed %v under detailed recovery", res.WriteDelay.Min)
	}
	// The leased write still waits for the restored lease: the approval
	// callback reaches the crashed... no — client 0 is alive, so it
	// approves and the wait is short but nonzero network time.
	if res.WriteDelay.Max == 0 {
		t.Fatal("leased write applied without honouring the restored lease")
	}
}

// Partition: the client on the far side keeps using valid leases; the
// writer's conflicting write waits out the partitioned holder's lease.
func TestPartitionDelaysWriteWithoutInconsistency(t *testing.T) {
	const term = 10 * time.Second
	tr := &trace.Trace{
		Duration: 60 * time.Second,
		Clients:  2,
		Files:    1,
		Events: []trace.Event{
			{At: 1 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
			{At: 2 * time.Second, Client: 0, File: 0, Op: trace.OpRead}, // hit under lease
			{At: 3 * time.Second, Client: 1, File: 0, Op: trace.OpWrite},
			// Reads during the partition are hits while the lease lasts.
			{At: 4 * time.Second, Client: 0, File: 0, Op: trace.OpRead},
		},
		Installed: nil,
	}
	res := run(t, Config{
		Trace: tr, Term: term, Net: lanNet(),
		Faults: []Fault{{Kind: PartitionClient, At: 2500 * time.Millisecond, Client: 0}},
	})
	if res.Writes != 1 {
		t.Fatalf("writes completed = %d", res.Writes)
	}
	if res.WriteDelay.Max < 6*time.Second {
		t.Fatalf("write delay %v, want ≈8s (partitioned holder's lease)", res.WriteDelay.Max)
	}
	if res.CacheHits < 2 {
		t.Fatalf("cache hits %d — partitioned client should still use valid leases", res.CacheHits)
	}
}

// Message loss: consistency must hold; performance degrades only.
func TestMessageLossRemainsConsistent(t *testing.T) {
	tr := trace.Shared(trace.SharedConfig{
		Seed: 13, Duration: 20 * time.Minute, Clients: 4, Files: 2,
		ReadRate: 0.8, WriteRate: 0.02,
	})
	net := lanNet()
	net.LossRate = 0.05
	res := run(t, Config{Trace: tr, Term: 10 * time.Second, Net: net})
	if res.LostMessages == 0 {
		t.Fatal("loss rate produced no losses — test not exercising anything")
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatal("no operations completed under loss")
	}
}

// Anticipatory extension (§4): better read delay, more server load.
func TestAnticipatoryExtensionTradeoff(t *testing.T) {
	tr := singleFilePoisson(21, time.Hour)
	const term = 5 * time.Second
	onDemand := run(t, Config{Trace: tr, Term: term, Net: lanNet()})
	antic := run(t, Config{Trace: tr, Term: term, Net: lanNet(), AnticipatoryLead: 2 * time.Second})
	if antic.ReadDelay.Mean >= onDemand.ReadDelay.Mean {
		t.Fatalf("anticipatory read delay %v not below on-demand %v",
			antic.ReadDelay.Mean, onDemand.ReadDelay.Mean)
	}
	if antic.ServerConsistencyMsgs <= onDemand.ServerConsistencyMsgs {
		t.Fatalf("anticipatory server load %d not above on-demand %d — no free lunch",
			antic.ServerConsistencyMsgs, onDemand.ServerConsistencyMsgs)
	}
}

// Batched extension (§3.1): one request covers many files, cutting the
// extension message rate for multi-file working sets.
func TestBatchedExtensionReducesLoad(t *testing.T) {
	tr := trace.Bursty(trace.BurstyConfig{
		Seed: 31, Duration: time.Hour, Clients: 1, Files: 10,
		ReadRate: 0.864, WriteRate: 0.02, WorkingSet: 10,
	})
	const term = 10 * time.Second
	plain := run(t, Config{Trace: tr, Term: term, Net: lanNet()})
	batched := run(t, Config{Trace: tr, Term: term, Net: lanNet(), BatchExtension: true})
	if batched.ServerConsistencyMsgs >= plain.ServerConsistencyMsgs {
		t.Fatalf("batched load %d not below per-file load %d",
			batched.ServerConsistencyMsgs, plain.ServerConsistencyMsgs)
	}
}

// Lease records at the server stay bounded and are reclaimed by expiry.
func TestLeaseRecordStorageBounded(t *testing.T) {
	tr := trace.Poisson(trace.PoissonConfig{
		Seed: 41, Duration: time.Hour, Clients: 4, Files: 50,
		ReadRate: 1, WriteRate: 0.02,
	})
	res := run(t, Config{Trace: tr, Term: 10 * time.Second, Net: lanNet()})
	// 4 clients × 50 files is the absolute ceiling.
	if res.MaxLeaseRecords > 200 {
		t.Fatalf("MaxLeaseRecords = %d > 200", res.MaxLeaseRecords)
	}
	if res.MaxLeaseRecords == 0 {
		t.Fatal("no lease records tracked")
	}
}

func TestZeroTermEveryReadChecks(t *testing.T) {
	tr := singleFilePoisson(51, 30*time.Minute)
	res := run(t, Config{Trace: tr, Term: 0, Net: lanNet()})
	if res.CacheHits != 0 {
		t.Fatalf("zero term produced %d cache hits", res.CacheHits)
	}
	if res.ReadDelay.Min < lanNet().RoundTrip() {
		t.Fatalf("zero-term read delay %v below a round trip", res.ReadDelay.Min)
	}
}

func TestRunPanicsWithoutTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run without trace did not panic")
		}
	}()
	Run(Config{})
}

// Unicast approvals cost more server messages than multicast at the
// same sharing level: S messages (1 multicast + S−1 approvals) versus
// 2(S−1) (requests + approvals).
func TestUnicastApprovalsCostMore(t *testing.T) {
	tr := trace.Shared(trace.SharedConfig{
		Seed: 13, Duration: 30 * time.Minute, Clients: 10, Files: 1,
		ReadRate: 0.864, WriteRate: 0.01,
	})
	multicast := run(t, Config{Trace: tr, Term: 30 * time.Second, Net: lanNet()})
	unicast := run(t, Config{Trace: tr, Term: 30 * time.Second, Net: lanNet(), UnicastApprovals: true})
	if unicast.ServerConsistencyMsgs <= multicast.ServerConsistencyMsgs {
		t.Fatalf("unicast approvals %d not above multicast %d",
			unicast.ServerConsistencyMsgs, multicast.ServerConsistencyMsgs)
	}
}
