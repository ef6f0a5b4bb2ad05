package server_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/server"
	"leases/internal/vfs"
)

// gateReplica is a stub Replica that always claims mastership, so the
// tests below isolate the serving gate: with a Replica configured, a
// server must refuse sessions until Promote completes, no matter what
// IsMaster says.
type gateReplica struct{}

func (gateReplica) IsMaster() bool                                               { return true }
func (gateReplica) MasterIndex() int                                             { return 0 }
func (gateReplica) MasterExpiry() time.Time                                      { return time.Time{} }
func (gateReplica) Role() string                                                 { return "master" }
func (gateReplica) ReplicateWrite(tracing.Context, string, uint64, []byte) error { return nil }
func (gateReplica) ReplicateMaxTerm(time.Duration) error                         { return nil }

// TestServingGateOpensAtPromote: a replicated server refuses hellos
// between the election win (IsMaster true) and the completed promotion
// (catch-up state merged, recovery window armed) — and again after a
// demotion — so no session can observe the unmerged gap state.
func TestServingGateOpensAtPromote(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		Term:    time.Minute,
		Replica: gateReplica{},
	})

	cfg := client.Config{ID: "gate"}
	if c, err := client.Dial(addr, cfg); err == nil {
		c.Close()
		t.Fatal("server accepted a session before Promote")
	}

	srv.Promote(tracing.Context{}, nil, 0)
	c, err := client.Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial after Promote: %v", err)
	}
	c.Close()

	srv.Demote()
	if c, err := client.Dial(addr, cfg); err == nil {
		c.Close()
		t.Fatal("server accepted a session after Demote")
	}
}

// TestApplyReplicatedReportsStaleDrop: ApplyReplicated distinguishes a
// real apply from a stale-sequence drop, because only real applies may
// count toward the master's replication quorum.
func TestApplyReplicatedReportsStaleDrop(t *testing.T) {
	srv := server.New(server.Config{Term: time.Minute, Replica: gateReplica{}})
	write := func(v string) []byte {
		var e proto.Enc
		return e.EncodeOp(vfs.Op{Kind: vfs.OpWrite, Path: "/f", Data: []byte(v)}).Bytes()
	}

	applied, err := srv.ApplyReplicated("/f", 2, write("v2"))
	if err != nil || !applied {
		t.Fatalf("fresh apply: applied=%v err=%v", applied, err)
	}
	applied, err = srv.ApplyReplicated("/f", 2, write("v2"))
	if err != nil || applied {
		t.Fatalf("duplicate seq reported applied=%v err=%v", applied, err)
	}
	applied, err = srv.ApplyReplicated("/f", 1, write("v1"))
	if err != nil || applied {
		t.Fatalf("older seq reported applied=%v err=%v", applied, err)
	}
	applied, err = srv.ApplyReplicated("/f", 3, write("v3"))
	if err != nil || !applied {
		t.Fatalf("newer seq: applied=%v err=%v", applied, err)
	}
}

// flipReplica is gateReplica with a mastership the test can take away.
type flipReplica struct {
	gateReplica
	deposed atomic.Bool
}

func (r *flipReplica) IsMaster() bool { return !r.deposed.Load() }

// TestDemotedMasterDoesNotApplyClearedMutation: a create blocked on a
// binding lease when its master is deposed must not change the local
// store once the lease lapses — that store is served again after a
// re-promotion. The serving gate is re-checked by every mutation's plan
// immediately before the apply, not only by file writes.
func TestDemotedMasterDoesNotApplyClearedMutation(t *testing.T) {
	const term = 10 * time.Second
	for _, demote := range []bool{true, false} {
		name := "lapsed-lease"
		if demote {
			name = "demote"
		}
		t.Run(name, func(t *testing.T) {
			clk := clock.NewSim()
			rep := &flipReplica{}
			o := obs.New(obs.Config{Now: clk.Now})
			srv, addr := startServer(t, server.Config{Term: term, Clock: clk, Replica: rep, Obs: o})
			srv.Promote(tracing.Context{}, nil, 0)
			if _, err := srv.Store().Mkdir("/dir", "root", vfs.DefaultPerm|vfs.WorldWrite); err != nil {
				t.Fatal(err)
			}

			// A holder takes a lease on /dir's binding and crashes.
			holder := rawHello(t, addr, "holder")
			var e proto.Enc
			e.U64(2) // node of /dir
			proto.WriteFrame(holder, proto.Frame{Type: proto.TReadDir, ReqID: 2, Payload: e.Bytes()})
			if _, err := proto.ReadFrame(holder); err != nil {
				t.Fatalf("holder readdir: %v", err)
			}
			holder.Close()

			// The create defers behind that lease.
			creator := rawHello(t, addr, "creator")
			defer creator.Close()
			var c proto.Enc
			c.Str("/dir/new").U8(uint8(vfs.DefaultPerm))
			proto.WriteFrame(creator, proto.Frame{Type: proto.TCreate, ReqID: 2, Payload: c.Bytes()})
			waitFor(t, "the create to defer", func() bool { return srv.Metrics().WritesDeferred >= 1 })

			rep.deposed.Store(true)
			if demote {
				srv.Demote() // also severs the creator's connection
			}
			clk.Advance(term + time.Second)
			waitFor(t, "the create to finish", func() bool {
				for _, op := range o.OpLatencies() {
					if op.Op == proto.TCreate.String() && op.Hist.Count > 0 {
						return true
					}
				}
				return false
			})

			if _, err := srv.Store().Lookup("/dir/new"); err == nil {
				t.Fatal("a deposed master applied a mutation cleared after its demotion")
			}
			if !demote {
				// Refused by the closed gate, the create is answered as
				// Demote answers it: the session is severed, so a client
				// redials toward the master and resubmits there.
				if rep, err := proto.ReadFrame(creator); err == nil {
					t.Fatalf("the deposed master answered the create with %v; want the session severed", rep.Type)
				}
			}
		})
	}
}

// rawHello opens a raw-protocol session: a client that can vanish
// without releasing its leases.
func rawHello(t *testing.T, addr, id string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello(t, nc, id)
	return nc
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
