//go:build !linux

package hrtimer

import "time"

// Timer falls back to the Go timer where there is no timerfd; it is
// then only millisecond accurate in an idle process.
type Timer struct{}

func New() (*Timer, error) { return &Timer{}, nil }

func (t *Timer) Close() error { return nil }

func (t *Timer) SleepUntil(deadline time.Time) error {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return nil
}
