package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestFigure1Shape(t *testing.T) {
	series := Figure1(true)
	if len(series) != 5 {
		t.Fatalf("Figure1 has %d series, want 5 (S=40,20,10,1 + Trace)", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	s1, ok1 := byName["S=1"]
	tr, ok2 := byName["Trace"]
	if !ok1 || !ok2 {
		t.Fatalf("missing series: %v", byName)
	}
	// All curves start at 1.0 (zero term) and decrease.
	for _, s := range series {
		if math.Abs(s.Y[0]-1.0) > 0.05 {
			t.Fatalf("%s starts at %.3f, want 1.0", s.Name, s.Y[0])
		}
		if s.Y[len(s.Y)-1] >= s.Y[1] {
			t.Fatalf("%s does not decrease", s.Name)
		}
	}
	// Figure 1 headline: S=1 at 10 s is ≈ 0.10 of zero term.
	if s1.Y[10] < 0.08 || s1.Y[10] > 0.13 {
		t.Fatalf("S=1 at 10s = %.3f, want ≈0.10", s1.Y[10])
	}
	// Higher sharing floors higher (writes keep costing NSW).
	if byName["S=40"].Y[30] <= byName["S=10"].Y[30] {
		t.Fatal("S=40 floor not above S=10 floor")
	}
	// The Trace curve's knee is at or below the analytic S=1 curve at
	// short terms (the paper: "sharper and at a lower term").
	if tr.Y[5] > s1.Y[5]+0.05 {
		t.Fatalf("Trace at 5s = %.3f vs S=1 %.3f — knee not sharper", tr.Y[5], s1.Y[5])
	}
}

func TestFigure2Shape(t *testing.T) {
	series := Figure2()
	if len(series) != 4 {
		t.Fatalf("Figure2 has %d series", len(series))
	}
	for _, s := range series {
		// Delay decreases with term and is maximal at term 0 (one RTT
		// per read, 1.2 ms scaled by the read share ≈ 1.15 ms).
		if s.Y[0] < 1.0 || s.Y[0] > 1.3 {
			t.Fatalf("%s at 0 = %.3f ms, want ≈1.15", s.Name, s.Y[0])
		}
		if s.Y[10] >= s.Y[1] {
			t.Fatalf("%s not decreasing", s.Name)
		}
	}
	// The curves are nearly indistinguishable (writes are a small
	// fraction of operations): S=1 and S=40 within 0.15 ms at 10 s, a
	// small fraction of the zero-term delay.
	if d := math.Abs(series[0].Y[10] - series[3].Y[10]); d > 0.15 {
		t.Fatalf("S=1 and S=40 differ by %.3f ms at 10s — paper says indistinguishable", d)
	}
}

func TestFigure3Headline(t *testing.T) {
	series := Figure3()
	var rel Series
	for _, s := range series {
		if s.Name == "degradation-%" {
			rel = s
		}
	}
	if rel.Name == "" {
		t.Fatal("missing degradation series")
	}
	if math.Abs(rel.Y[10]-10.1) > 0.7 {
		t.Fatalf("degradation at 10s = %.2f%%, want ≈10.1%%", rel.Y[10])
	}
	if math.Abs(rel.Y[30]-3.6) > 0.5 {
		t.Fatalf("degradation at 30s = %.2f%%, want ≈3.6%%", rel.Y[30])
	}
}

func TestTable2Measured(t *testing.T) {
	tbl := Table2(true)
	if len(tbl.Rows) < 8 {
		t.Fatalf("Table2 rows = %d", len(tbl.Rows))
	}
}

func TestHeadlinesWithinTolerance(t *testing.T) {
	for _, h := range Headlines() {
		relErr := math.Abs(h.Measured-h.Paper) / h.Paper
		if relErr > 0.08 {
			t.Errorf("%s: measured %.4f vs paper %.4f (%.1f%% off)",
				h.Name, h.Measured, h.Paper, relErr*100)
		}
	}
}

func TestInstalledFilesOptimizationWins(t *testing.T) {
	tbl := InstalledFiles(true)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var plainMsgs, optMsgs int64
	var plainRecs, optRecs int64
	parse := func(s string) int64 {
		var v int64
		for _, c := range s {
			if c >= '0' && c <= '9' {
				v = v*10 + int64(c-'0')
			}
		}
		return v
	}
	plainMsgs, optMsgs = parse(tbl.Rows[0][1]), parse(tbl.Rows[1][1])
	plainRecs, optRecs = parse(tbl.Rows[0][4]), parse(tbl.Rows[1][4])
	if optMsgs >= plainMsgs {
		t.Fatalf("multicast extension load %d not below per-client %d", optMsgs, plainMsgs)
	}
	if optRecs >= plainRecs {
		t.Fatalf("multicast extension records %d not below per-client %d — the point is eliminating per-client state", optRecs, plainRecs)
	}
	// Both variants must be consistent.
	if tbl.Rows[0][5] != "0" || tbl.Rows[1][5] != "0" {
		t.Fatalf("stale reads: %v / %v", tbl.Rows[0][5], tbl.Rows[1][5])
	}
}

func TestBaselinesOrdering(t *testing.T) {
	tbl := Baselines(true)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Lease rows guarantee consistency; the polling rows admit staleness.
	for i, row := range tbl.Rows {
		isLease := strings.HasPrefix(row[0], "lease")
		staleZero := row[3] == "0"
		if isLease && !staleZero {
			t.Fatalf("row %d (%s): lease regime had stale reads %s", i, row[0], row[3])
		}
	}
	if tbl.Rows[3][3] == "0" && tbl.Rows[4][3] == "0" {
		t.Fatal("neither polling variant showed staleness — comparison is vacuous")
	}
}

func TestScalingDirections(t *testing.T) {
	series := Scaling()
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	knee := series[0]
	for i := 1; i < len(knee.Y); i++ {
		if knee.Y[i] >= knee.Y[i-1] {
			t.Fatalf("relative load at 10s not decreasing in R: %v", knee.Y)
		}
	}
	deg := series[1]
	for i := 1; i < len(deg.Y); i++ {
		if deg.Y[i] <= deg.Y[i-1] {
			t.Fatalf("degradation not increasing in RTT: %v", deg.Y)
		}
	}
}

func TestFaultToleranceMatrix(t *testing.T) {
	tbl := FaultTolerance()
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		unsafe := strings.Contains(row[0], "unsafe")
		consistent := row[3] == "yes"
		if unsafe && consistent {
			t.Fatalf("%s: expected staleness, saw none", row[0])
		}
		if !unsafe && !consistent {
			t.Fatalf("%s: expected consistency, saw staleness", row[0])
		}
	}
	// The crashed-holder write delay is bounded by the term.
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "holder crashes") {
			d, err := time.ParseDuration(row[1])
			if err != nil {
				t.Fatalf("bad duration %q", row[1])
			}
			if d > 10*time.Second {
				t.Fatalf("crashed-holder write delay %v exceeds the 10s term", d)
			}
			if d < 6*time.Second {
				t.Fatalf("crashed-holder write delay %v — lease not honoured", d)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RenderSeries(&sb, "t", "x", "y", []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}}})
	RenderTable(&sb, Table{Title: "t", Header: []string{"a"}, Rows: [][]string{{"b"}}})
	out := sb.String()
	if !strings.Contains(out, "3.0000") || !strings.Contains(out, "b") {
		t.Fatalf("render output:\n%s", out)
	}
}
