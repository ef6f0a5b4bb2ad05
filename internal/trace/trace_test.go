package trace

import (
	"math"
	"testing"
	"time"
)

func TestPoissonRatesMatchConfig(t *testing.T) {
	tr := Poisson(PoissonConfig{
		Seed:      1,
		Duration:  2 * time.Hour,
		Clients:   4,
		Files:     20,
		ReadRate:  0.864,
		WriteRate: 0.04,
	})
	s := tr.Measure()
	if math.Abs(s.ReadRate-0.864) > 0.05 {
		t.Fatalf("measured read rate %.4f, want ≈0.864", s.ReadRate)
	}
	if math.Abs(s.WriteRate-0.04) > 0.01 {
		t.Fatalf("measured write rate %.4f, want ≈0.04", s.WriteRate)
	}
}

func TestPoissonEventsSortedAndInRange(t *testing.T) {
	tr := Poisson(PoissonConfig{Seed: 2, Duration: time.Hour, Clients: 3, Files: 5, ReadRate: 1, WriteRate: 0.1})
	var prev time.Duration
	for _, e := range tr.Events {
		if e.At < prev {
			t.Fatal("events out of order")
		}
		prev = e.At
		if e.At < 0 || e.At >= tr.Duration {
			t.Fatalf("event at %v outside [0, %v)", e.At, tr.Duration)
		}
		if int(e.Client) >= tr.Clients || int(e.File) >= tr.Files {
			t.Fatalf("event indices out of range: %+v", e)
		}
		if e.Op != OpRead && e.Op != OpWrite {
			t.Fatalf("bad op %v", e.Op)
		}
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	cfg := PoissonConfig{Seed: 7, Duration: time.Hour, Clients: 2, Files: 3, ReadRate: 0.5, WriteRate: 0.05}
	a, b := Poisson(cfg), Poisson(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatal("same seed produced different events")
		}
	}
	cfg.Seed = 8
	c := Poisson(cfg)
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestPoissonBurstinessNearOne(t *testing.T) {
	tr := Poisson(PoissonConfig{Seed: 3, Duration: 4 * time.Hour, Clients: 1, Files: 10, ReadRate: 1})
	b := tr.BurstinessIndex()
	if b < 0.7 || b > 1.4 {
		t.Fatalf("Poisson burstiness index %.3f, want ≈1", b)
	}
}

func TestBurstyIsBurstierThanPoisson(t *testing.T) {
	p := Poisson(PoissonConfig{Seed: 4, Duration: 4 * time.Hour, Clients: 1, Files: 10, ReadRate: 0.864})
	b := Bursty(BurstyConfig{Seed: 4, Duration: 4 * time.Hour, Clients: 1, Files: 10, ReadRate: 0.864})
	pi, bi := p.BurstinessIndex(), b.BurstinessIndex()
	if bi <= pi*1.5 {
		t.Fatalf("bursty index %.3f not clearly above Poisson %.3f", bi, pi)
	}
}

func TestBurstyLongRunRateCalibrated(t *testing.T) {
	tr := Bursty(BurstyConfig{
		Seed: 5, Duration: 8 * time.Hour, Clients: 2, Files: 10,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	s := tr.Measure()
	if math.Abs(s.ReadRate-0.864) > 0.1 {
		t.Fatalf("bursty read rate %.4f, want ≈0.864", s.ReadRate)
	}
	if math.Abs(s.WriteRate-0.04) > 0.015 {
		t.Fatalf("bursty write rate %.4f, want ≈0.04", s.WriteRate)
	}
}

func TestVWorkloadShape(t *testing.T) {
	tr := V(VConfig{
		Seed: 6, Duration: 4 * time.Hour, Clients: 2,
		RegularFiles: 30, InstalledFiles: 20,
		ReadRate: 0.864, WriteRate: 0.04,
	})
	s := tr.Measure()
	// Installed files take about half of reads and no writes.
	share := float64(s.InstalledReads) / float64(s.Reads)
	if math.Abs(share-0.5) > 0.08 {
		t.Fatalf("installed read share %.3f, want ≈0.5", share)
	}
	for _, e := range tr.Events {
		if e.Op == OpWrite && tr.Installed[e.File] {
			t.Fatal("write to an installed file")
		}
	}
	if len(tr.Installed) != 20 {
		t.Fatalf("installed set size %d, want 20", len(tr.Installed))
	}
	// Read/write ratio ≈ 0.864/0.04 = 21.6 — "almost an order of
	// magnitude higher" than the 2-4:1 of Unix block-level traces.
	if s.ReadWriteRatio < 15 || s.ReadWriteRatio > 30 {
		t.Fatalf("read/write ratio %.1f, want ≈21.6", s.ReadWriteRatio)
	}
}

func TestVWorkloadInstalledIndicesFollowRegular(t *testing.T) {
	tr := V(VConfig{
		Seed: 6, Duration: time.Hour, Clients: 1,
		RegularFiles: 10, InstalledFiles: 5,
		ReadRate: 1, WriteRate: 0.1,
	})
	for f := range tr.Installed {
		if f < 10 || f >= 15 {
			t.Fatalf("installed index %d outside [10,15)", f)
		}
	}
	if tr.Files != 15 {
		t.Fatalf("Files = %d, want 15", tr.Files)
	}
}

func TestMerge(t *testing.T) {
	a := Poisson(PoissonConfig{Seed: 1, Duration: time.Hour, Clients: 1, Files: 5, ReadRate: 1})
	b := Poisson(PoissonConfig{Seed: 2, Duration: 2 * time.Hour, Clients: 2, Files: 3, ReadRate: 0.5})
	m := Merge(a, b)
	if m.Duration != 2*time.Hour || m.Clients != 2 || m.Files != 5 {
		t.Fatalf("merge header = %+v", m)
	}
	if len(m.Events) != len(a.Events)+len(b.Events) {
		t.Fatal("merge lost events")
	}
	var prev time.Duration
	for _, e := range m.Events {
		if e.At < prev {
			t.Fatal("merged events out of order")
		}
		prev = e.At
	}
}

func TestGeneratorsValidateConfig(t *testing.T) {
	cases := []func(){
		func() { Poisson(PoissonConfig{Duration: 0, Clients: 1, Files: 1, ReadRate: 1}) },
		func() { Poisson(PoissonConfig{Duration: time.Second, Clients: 0, Files: 1, ReadRate: 1}) },
		func() { Poisson(PoissonConfig{Duration: time.Second, Clients: 1, Files: 0, ReadRate: 1}) },
		func() {
			V(VConfig{Duration: time.Second, Clients: 1, RegularFiles: 1, InstalledFiles: 0, ReadRate: 1})
		},
		func() {
			V(VConfig{Duration: time.Second, Clients: 1, RegularFiles: 1, InstalledFiles: 1, ReadRate: 1, InstalledShare: 2})
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMeasureEmptyTrace(t *testing.T) {
	tr := &Trace{Duration: time.Hour, Clients: 1, Files: 1}
	s := tr.Measure()
	if s.Reads != 0 || s.Writes != 0 || !math.IsInf(s.ReadWriteRatio, 1) {
		t.Fatalf("empty measure = %+v", s)
	}
	if tr.BurstinessIndex() != 0 {
		t.Fatal("empty burstiness nonzero")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op strings wrong")
	}
	if Op(9).String() == "" {
		t.Fatal("unknown op string empty")
	}
}
