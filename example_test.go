package leases_test

import (
	"fmt"
	"time"

	"leases"
	"leases/internal/clock"
	"leases/internal/vfs"
)

// The protocol core embedded directly: a server-side Manager granting
// leases and deferring a conflicting write until the holder approves.
func ExampleManager() {
	mgr := leases.NewManager(leases.FixedTerm(10 * time.Second))
	now := clock.Epoch
	datum := leases.Datum{Kind: vfs.FileData, Node: 42}

	// A cache reads the datum and is granted a lease.
	g := mgr.Grant("cache-1", datum, now)
	fmt.Printf("granted: %v for %v\n", g.Leased, g.Term)

	// Another client wants to write: the server must first obtain the
	// leaseholder's approval.
	disp := mgr.SubmitWrite("writer", datum, now.Add(time.Second))
	fmt.Printf("write ready: %v, needs approval from: %v\n", disp.Ready, disp.NeedApproval)

	// The holder approves (invalidating its copy); the write proceeds.
	ready := mgr.Approve("cache-1", disp.WriteID, now.Add(2*time.Second))
	fmt.Printf("ready after approval: %v\n", ready)
	mgr.WriteApplied(disp.WriteID, now.Add(2*time.Second))

	// Output:
	// granted: true for 10s
	// write ready: false, needs approval from: [cache-1]
	// ready after approval: true
}

// The client side: effective terms are shortened by the clock allowance
// ε, so bounded clock skew can never cause a stale read.
func ExampleHolder() {
	h := leases.NewHolder(leases.HolderConfig{Allowance: 100 * time.Millisecond})
	now := clock.Epoch
	datum := leases.Datum{Kind: vfs.FileData, Node: 7}

	h.ApplyGrant(datum, 1, 10*time.Second, now, now)
	fmt.Println("valid at 5s:", h.Valid(datum, now.Add(5*time.Second)))
	// The client treats its lease as expiring ε early.
	fmt.Println("valid at 9.95s:", h.Valid(datum, now.Add(9950*time.Millisecond)))

	// Output:
	// valid at 5s: true
	// valid at 9.95s: false
}

// Choosing a lease term with the analytic model of §3.1: leasing helps
// exactly when the benefit factor α = 2R/(S·W) exceeds one.
func ExampleChooseTerm() {
	m := leases.VParams() // the paper's V-system workload parameters
	m.S = 10              // ten caches share each written file

	fmt.Printf("benefit factor α = %.1f\n", m.BenefitFactor())
	fmt.Printf("term: %v\n", leases.ChooseTerm(m, time.Second, 30*time.Second))

	// Heavy write sharing makes caching counterproductive: term zero.
	m.W = 10
	fmt.Printf("write-hot term: %v\n", leases.ChooseTerm(m, time.Second, 30*time.Second))

	// Output:
	// benefit factor α = 4.3
	// term: 3.58676688s
	// write-hot term: 0s
}
