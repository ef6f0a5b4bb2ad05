package topo

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// seedOne puts the one file the test writes into a store; on a sharded
// deployment only the owner gets it.
func seedOne(path string) func(*vfs.Store, int, *shard.Ring) error {
	return func(st *vfs.Store, group int, ring *shard.Ring) error {
		if ring != nil && ring.Lookup(path) != group {
			return nil
		}
		_, err := st.CreateWith(path, "root", vfs.DefaultPerm|vfs.WorldWrite, []byte("seed"))
		return err
	}
}

// writeThenRead drives one write and one read through the deployment's
// own kind of client.
func writeThenRead(t *Topology, path string, data []byte) ([]byte, error) {
	cfg := client.Config{ID: "topo-test", Allowance: 10 * time.Millisecond}
	switch t.Kind {
	case Shard2:
		r, err := client.NewRouter(t.Ring, cfg)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		if err := r.Write(path, data); err != nil {
			return nil, err
		}
		return r.Read(path)
	case Repl3:
		cfg.Replicas = t.Addrs
		c, err := client.DialReplicas(cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.Write(path, data); err != nil {
			return nil, err
		}
		return c.Read(path)
	default:
		c, err := client.Dial(t.Addrs[0], cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.Write(path, data); err != nil {
			return nil, err
		}
		return c.Read(path)
	}
}

// settle waits for the goroutine count to fall back to want: exited
// goroutines leave the count a little after the call that ended them
// returns.
func settle(want int) int {
	var n int
	for i := 0; i < 200; i++ {
		if n = runtime.NumGoroutine(); n <= want {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

func TestEachKindServesAWriteAndLeavesNoGoroutines(t *testing.T) {
	for _, kind := range []Kind{Single, Repl3, Shard2} {
		t.Run(string(kind), func(t *testing.T) {
			before := runtime.NumGoroutine()
			topo, err := Boot(Config{
				Kind: kind, Term: time.Second, Allowance: 10 * time.Millisecond,
				ElectionTerm: 2 * time.Second, PeerDelay: time.Millisecond,
				Seed: 1, Files: seedOne("/f"),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []byte(fmt.Sprintf("written through %s", kind))
			got, err := writeThenRead(topo, "/f", want)
			topo.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("read back %q, want %q", got, want)
			}
			if kind == Repl3 {
				var peerFrames uint64
				for _, l := range topo.Lines {
					peerFrames += l.Up().Frames
				}
				if peerFrames == 0 {
					t.Error("a replicated write crossed no peer link")
				}
			}
			if after := settle(before); after > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines before Boot, %d after Close\n%s",
					before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func TestStopReplicaElectsAnotherMaster(t *testing.T) {
	topo, err := Boot(Config{
		Kind: Repl3, Term: time.Second, Allowance: 10 * time.Millisecond,
		ElectionTerm: 500 * time.Millisecond, PeerDelay: time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	first, err := topo.WaitMaster(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	topo.StopReplica(first)
	second, err := topo.WaitMaster(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Errorf("stopped replica %d is still reported master", first)
	}
}
