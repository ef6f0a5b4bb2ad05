package replica

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/obs/tracing"
)

// TestRound walks the four decisions a round makes for both of its
// shells: whom a transmission goes to, what counts, when it is done and
// how many transmissions it gets.
func TestRound(t *testing.T) {
	type step struct {
		send      bool // else count from
		master    bool
		from      int
		wantTo    []int // send: nil when none is due
		wantCount bool
	}
	cases := []struct {
		name     string
		self, n  int
		budget   int
		steps    []step
		wantDone bool
	}{
		{"targets skip self and counted peers", 2, 5, ShipTransmissions, []step{
			{send: true, wantTo: []int{0, 1, 3, 4}},
			{from: 3, wantCount: true},
			{send: true, wantTo: []int{0, 1, 4}},
			{from: 0, wantCount: true},
		}, true},
		{"a duplicate answer counts once", 0, 5, ShipTransmissions, []step{
			{send: true, wantTo: []int{1, 2, 3, 4}},
			{from: 1, wantCount: true},
			{send: true, wantTo: []int{2, 3, 4}},
			{from: 1},
			{from: 0}, // itself
			{from: 5}, // no such replica
		}, false},
		{"the budget is spent", 0, 3, ShipTransmissions, []step{
			{send: true, wantTo: []int{1, 2}},
			{send: true, wantTo: []int{1, 2}},
			{send: true},
			{from: 2, wantCount: true},
		}, true},
		{"a done round sends nothing and counts nothing", 1, 3, ShipTransmissions, []step{
			{send: true, wantTo: []int{0, 2}},
			{from: 2, wantCount: true},
			{send: true},
			{from: 0},
		}, true},
		{"the sync round stops when mastership ends", 0, 5, WhileMaster, []step{
			{send: true, master: true, wantTo: []int{1, 2, 3, 4}},
			{send: true, master: true, wantTo: []int{1, 2, 3, 4}},
			{from: 4, wantCount: true},
			{send: true, master: true, wantTo: []int{1, 2, 3}},
			{send: true, master: false},
		}, false},
		{"a single replica is done at once", 0, 1, WhileMaster, []step{
			{send: true, master: true},
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewRound(tc.self, tc.n, tc.budget)
			for i, st := range tc.steps {
				if st.send {
					to, ok := rd.Send(st.master)
					if ok != (st.wantTo != nil) || !reflect.DeepEqual(to, st.wantTo) {
						t.Fatalf("step %d: Send = %v, %v; want %v", i, to, ok, st.wantTo)
					}
					continue
				}
				if got := rd.Count(st.from); got != st.wantCount {
					t.Fatalf("step %d: Count(%d) = %v, want %v", i, st.from, got, st.wantCount)
				}
			}
			if rd.Done() != tc.wantDone {
				t.Fatalf("done = %v with %d of %d counted, want %v", rd.Done(), rd.Counted(), rd.Need(), tc.wantDone)
			}
		})
	}
}

// TestReplicateWriteCountsAcrossTransmissions: in a 5-replica set with
// two followers down, a live follower that refuses the first frame of a
// write and applies its re-send completes the quorum with the follower
// that applied the first. The re-send goes to it and the two down ones;
// a round that recounted from zero would hear the other live follower
// answer its second copy as stale and fail the write at 1/2 peers.
func TestReplicateWriteCountsAcrossTransmissions(t *testing.T) {
	const path = "/x"
	addrs := freeAddrs(t, 5)
	var refuser atomic.Int64
	refuser.Store(-1)
	var mu sync.Mutex
	seqs := make([]map[string]uint64, len(addrs))
	refused := make([]uint64, len(addrs)) // the last sequence of path refused
	var nodes []*Node
	for i := range addrs {
		i := i
		seqs[i] = map[string]uint64{}
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: nodeTerm, Allowance: nodeTerm / 10, Seed: int64(i) + 3,
			OnReplApply: func(f FileState) (bool, error) {
				mu.Lock()
				defer mu.Unlock()
				if f.Path != path {
					return true, nil
				}
				if int64(i) == refuser.Load() && f.Seq > refused[i] {
					refused[i] = f.Seq
					return false, errors.New("refusing the first frame")
				}
				if f.Seq <= seqs[i][f.Path] {
					return false, nil
				}
				seqs[i][f.Path] = f.Seq
				return true, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	first := waitMaster(nodes, nil, 10*time.Second)
	if first < 0 {
		t.Fatal("no master")
	}
	down := map[int]bool{}
	for i := range nodes {
		if i != first && len(down) < 2 {
			down[i] = true
			nodes[i].Stop()
		}
	}
	// Mastership may move among the three live replicas, and a candidate
	// that lost an election may leave a promise that fences the master
	// until it renews: a write that finds its master deposed starts over
	// at the next one, under a new sequence.
	for seq := uint64(1); ; seq++ {
		id := waitMaster(nodes, down, 10*time.Second)
		if id < 0 {
			t.Fatal("no master among the live replicas")
		}
		master := nodes[id]
		waitFor(t, "replication to pass the fence", func() bool {
			return master.ReplicateWrite(tracing.Context{}, FileState{Path: "/probe", Seq: 1}) == nil
		})
		var live []int
		for i := range nodes {
			if i != id && !down[i] {
				live = append(live, i)
			}
		}
		refuser.Store(int64(live[1]))
		err := master.ReplicateWrite(tracing.Context{}, FileState{Path: path, Seq: seq, Data: []byte("v")})
		if errors.Is(err, errNotMaster) {
			continue
		}
		if err != nil {
			t.Fatalf("ReplicateWrite with a quorum holding the write: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, f := range live {
			if seqs[f][path] != seq {
				t.Errorf("follower %d holds %s at seq %d, want %d", f, path, seqs[f][path], seq)
			}
		}
		return
	}
}
