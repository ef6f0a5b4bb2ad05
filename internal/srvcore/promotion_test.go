package srvcore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/vfs"
)

// TestPromotion is the promotion's order and failure rule, which both
// shells perform: each unsettled file ships, one at a time in path order,
// then the ceiling is raised, then the window and the gate open; a failed
// round waits out the pause and is tried again — a ship under a higher
// sequence — while this replica is master, and the promotion fails, the
// gate closed, once a failed round or the end of its pause finds it is
// not. Nothing changes after Done or Fail.
func TestPromotion(t *testing.T) {
	const floor, ceiling = 2 * time.Second, time.Minute
	for _, tc := range []struct {
		name  string
		files []string // synced at sequence 1, none held here
		fail  []int    // the reports (counted from 0) that fail
		lapse int      // mastership lapses before this report (-1: never)
		want  []string
	}{
		{name: "empty merge", lapse: -1, want: []string{"raise 1m0s", "done 2s"}},
		{name: "path order", files: []string{"/c", "/a", "/b"}, lapse: -1,
			want: []string{"ship /a#2", "ship /b#2", "ship /c#2", "raise 1m0s", "done 2s"}},
		{name: "failed ship", files: []string{"/a"}, fail: []int{0}, lapse: -1,
			want: []string{"ship /a#2", "wait", "ship /a#3", "raise 1m0s", "done 2s"}},
		{name: "failed raise", fail: []int{0}, lapse: -1,
			want: []string{"raise 1m0s", "wait", "raise 1m0s", "done 2s"}},
		{name: "lapse mid-sequence", files: []string{"/a", "/b"}, fail: []int{1}, lapse: 1,
			want: []string{"ship /a#2", "ship /b#2", "fail"}},
		{name: "lapse during the pause", fail: []int{0}, lapse: 1,
			want: []string{"raise 1m0s", "wait", "fail"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master := true
			c := New(Config{Store: vfs.New(clock.NewSim(), "srv"), Owner: "srv", Term: time.Second,
				Master: func(time.Time) bool { return master }})
			var synced []ReplFile
			for _, path := range tc.files {
				synced = append(synced, ReplFile{Path: path, Seq: 1, Data: shippedWrite(path, "v")})
			}
			now := clock.Epoch
			p, st := c.Promotion(synced, floor, ceiling, now)
			got := []string{describe(st)}
			for i := 0; st.Kind != Done && st.Kind != Fail; i++ {
				var err error
				if st.Kind == Wait {
					if st.Until != now.Add(promotionPause) {
						t.Fatalf("the pause ends at %v, want %v", st.Until.Sub(now), promotionPause)
					}
					if early := p.Report(nil, now); early.Kind != Wait || early.Until != st.Until {
						t.Fatalf("a pause reported early handed out %s", describe(early))
					}
					now = st.Until
				} else if slices.Contains(tc.fail, i) {
					err = errors.New("short of a quorum")
				}
				if i == tc.lapse {
					master = false
				}
				st = p.Report(err, now)
				got = append(got, describe(st))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("steps %q, want %q", got, tc.want)
			}
			master = true
			serving, floorAfter := c.Serving(now), c.TermFloor()
			if done := st.Kind == Done; serving != done || done && (st.Until != now.Add(floor) || floorAfter != ceiling) {
				t.Fatalf("after %s: serving=%v until=%v floor=%v", describe(st), serving, st.Until.Sub(now), floorAfter)
			}
			for _, err := range []error{nil, errors.New("late")} {
				if again := p.Report(err, now.Add(time.Hour)); describe(again) != describe(st) || c.Serving(now) != serving || c.TermFloor() != floorAfter {
					t.Fatalf("a report after %s handed out %s", describe(st), describe(again))
				}
			}
		})
	}
}

func describe(st Step) string {
	switch st.Kind {
	case Ship:
		return fmt.Sprintf("ship %s#%d", st.Path, st.Seq)
	case Raise:
		return fmt.Sprintf("raise %v", st.Term)
	case Wait:
		return "wait"
	case Done:
		return fmt.Sprintf("done %v", st.Term)
	case Fail:
		return "fail"
	}
	return fmt.Sprintf("kind %d", st.Kind)
}
