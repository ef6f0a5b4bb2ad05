package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"leases/internal/shard"
)

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	f := newVmixFiles()
	a := f.stream(7, 0, 5*time.Second)
	if b := f.stream(7, 0, 5*time.Second); !reflect.DeepEqual(a, b) {
		t.Error("the same seed and connection gave two different streams")
	}
	if b := f.stream(8, 0, 5*time.Second); reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same stream")
	}
	if b := f.stream(7, 1, 5*time.Second); reflect.DeepEqual(a, b) {
		t.Error("two connections gave the same stream")
	}
	s := newSatFiles(1000, 8, 0, 0)
	if !reflect.DeepEqual(s.coldOrder(3, 1), s.coldOrder(3, 1)) {
		t.Error("the same seed gave two cold orders")
	}
}

func TestVmixStreamHasThePapersMix(t *testing.T) {
	f := newVmixFiles()
	ops := f.stream(1, 0, 200*time.Second)
	var inst, shRead, pvRead, shWrite, pvWrite float64
	last := time.Duration(0)
	for _, o := range ops {
		if o.due < last {
			t.Fatal("stream is not in time order")
		}
		last = o.due
		switch {
		case o.kind == opRead && o.file < f.sh:
			inst++
		case o.kind == opRead && o.file < f.pv[0]:
			shRead++
		case o.kind == opRead:
			pvRead++
			if o.file < f.pv[0] || o.file >= f.pv[1] {
				t.Fatalf("connection 0 read private file %d of connection 1", o.file)
			}
		case o.class == clsSharedWrite:
			shWrite++
			if f.writer(o.file) != 0 {
				t.Fatalf("connection 0 wrote shared file %d, whose writer is connection %d", o.file, f.writer(o.file))
			}
		default:
			pvWrite++
			if f.writer(o.file) != 0 {
				t.Fatalf("connection 0 wrote private file %d of connection 1", o.file)
			}
		}
	}
	n := float64(len(ops))
	if rate := n / 200; math.Abs(rate-vmixRate) > 0.02*vmixRate {
		t.Errorf("arrival rate %.0f/s, want %d/s", rate, vmixRate)
	}
	for name, c := range map[string]struct{ got, want float64 }{
		"installed reads": {inst / n, 0.45},
		"shared reads":    {shRead / n, 0.253},
		"private reads":   {pvRead / n, 0.253},
		"shared writes":   {shWrite / n, 0.022},
		"private writes":  {pvWrite / n, 0.022},
	} {
		if math.Abs(c.got-c.want) > 0.005 {
			t.Errorf("%s are %.3f of the stream, want %.3f", name, c.got, c.want)
		}
	}
}

func TestZipfFollowsOneOverRank(t *testing.T) {
	z := newZipf(64)
	r := connRand(1, 0)
	counts := make([]float64, 64)
	const n = 400_000
	for i := 0; i < n; i++ {
		counts[z.draw(r)]++
	}
	// Rank 1 is drawn twice as often as rank 2 and 64 times as often as
	// rank 64.
	if ratio := counts[0] / counts[1]; math.Abs(ratio-2) > 0.1 {
		t.Errorf("rank 1 : rank 2 = %.2f, want 2", ratio)
	}
	if ratio := counts[0] / counts[63]; math.Abs(ratio-64) > 8 {
		t.Errorf("rank 1 : rank 64 = %.1f, want 64", ratio)
	}
}

func TestSatFilesSplitTheColdSet(t *testing.T) {
	f := newSatFiles(1000, 4, 2, 3)
	if got := len(f.paths); got != 1000+2*(4+2+3) {
		t.Fatalf("%d files, want %d", got, 1000+18)
	}
	seen := map[int]bool{}
	for c := 0; c < numConns; c++ {
		order := f.coldOrder(1, c)
		if len(order) != 500 {
			t.Fatalf("connection %d reads %d cold files, want 500", c, len(order))
		}
		for _, id := range order {
			if seen[id] || id < f.cold || id >= f.cold+1000 {
				t.Fatalf("cold file %d read twice or out of range", id)
			}
			seen[id] = true
		}
	}
	unique := map[string]bool{}
	for _, p := range f.paths {
		if unique[p] {
			t.Fatalf("path %s appears twice", p)
		}
		unique[p] = true
	}
}

func TestRenamePlanAlternatesAndNeverCollides(t *testing.T) {
	ring, err := shard.New(1, []shard.Group{{ID: 0, Replicas: []string{"a"}}, {ID: 1, Replicas: []string{"b"}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := newSatFiles(0, 0, 0, 16)
	p := newRenamePlan(f, 0, ring)
	taken := map[string]bool{}
	for _, name := range p.at {
		taken[name] = true
	}
	for k := 0; k < 1000; k++ {
		idx, from, to, cross := p.next(k)
		if cross != (k%2 == 1) {
			t.Fatalf("rename %d: cross=%v, want local and cross-shard alternating", k, cross)
		}
		if !taken[from] || taken[to] {
			t.Fatalf("rename %d: %s → %s moves a name that is not held or onto one that is", k, from, to)
		}
		if (ring.Lookup(from) != ring.Lookup(to)) != cross {
			t.Fatalf("rename %d: %s → %s crosses shards: %v, planned %v", k, from, to, !cross, cross)
		}
		delete(taken, from)
		taken[to] = true
		if p.at[idx] != to {
			t.Fatalf("rename %d: plan lost track of file %d", k, idx)
		}
	}
}
