package hrtimer

import (
	"sort"
	"testing"
	"time"
)

// TestSleepsToTheDeadline holds the timer to the accuracy the delay
// line and the open-loop generator rely on: the median overshoot of a
// 1ms sleep in an idle process stays far below the millisecond a Go
// timer is allowed.
func TestSleepsToTheDeadline(t *testing.T) {
	tm, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	const n = 50
	over := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(time.Millisecond)
		if err := tm.SleepUntil(deadline); err != nil {
			t.Fatal(err)
		}
		late := time.Since(deadline)
		if late < 0 {
			t.Fatalf("woke %v before the deadline", -late)
		}
		over = append(over, late)
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	if med := over[n/2]; med > 200*time.Microsecond {
		t.Errorf("median overshoot %v, want under 200µs (all: %v)", med, over)
	}
}

func TestPastDeadlineReturnsAtOnce(t *testing.T) {
	tm, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	start := time.Now()
	if err := tm.SleepUntil(start.Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("a past deadline took %v", took)
	}
}
