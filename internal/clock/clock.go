// Package clock abstracts the passage of physical time.
//
// Leases are a time-based mechanism: correctness depends on the server and
// its clients observing clocks whose mutual error is bounded by the
// allowance ε (Gray & Cheriton §2, §5). Every component in this repository
// reads time through the Clock interface so that:
//
//   - production code runs against Real (the system clock),
//   - tests and the trace-driven simulator run against Sim, a manually
//     advanced deterministic clock, and
//   - the §5 clock-failure experiments run against Drift, a clock whose
//     rate is deliberately wrong, and Skew, a clock with a fixed offset.
//
// Durations and instants use time.Duration and time.Time throughout; Sim
// maps them onto an artificial epoch so simulated and real components are
// interchangeable.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and timer primitives. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now reports the current instant according to this clock.
	Now() time.Time
	// After returns a channel that delivers one value once d has elapsed
	// on this clock. The returned stop function releases resources and
	// prevents delivery if it has not yet occurred; it reports whether
	// the timer was stopped before firing.
	After(d time.Duration) (<-chan time.Time, func() bool)
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// At arms a timer on c for instant t: exactly t on a clock that arms
// absolute instants (Sim), else t less one reading of Now, which on a
// wall clock moves only by the time the arming takes.
func At(c Clock, t time.Time) (<-chan time.Time, func() bool) {
	if a, ok := c.(interface {
		At(time.Time) (<-chan time.Time, func() bool)
	}); ok {
		return a.At(t)
	}
	return c.After(t.Sub(c.Now()))
}

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// Now implements Clock using the system clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock using time.NewTimer.
func (Real) After(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Sleep implements Clock using time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Epoch is the instant at which simulated clocks begin. Its particular
// value is arbitrary; tests compare instants relative to it.
var Epoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// simTimer is a pending timer on a Sim clock. seq records arming order:
// timers with equal deadlines fire in the order they were created,
// pinning a total (deadline, seq) order — selecting among equal
// deadlines by map iteration would make same-tick firing order vary
// between runs of the same schedule.
type simTimer struct {
	at  time.Time
	seq uint64
	ch  chan time.Time
}

// Sim is a deterministic, manually advanced clock. Time moves only when
// Advance or AdvanceTo is called; timers fire synchronously during the
// advance, in (deadline, arming order). Sim is safe for concurrent use.
type Sim struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers map[*simTimer]struct{}
}

// NewSim returns a simulated clock reading Epoch.
func NewSim() *Sim { return NewSimAt(Epoch) }

// NewSimAt returns a simulated clock reading start.
func NewSimAt(start time.Time) *Sim {
	return &Sim{now: start, timers: make(map[*simTimer]struct{})}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock: a timer for d past the clock's reading at the
// call. A timer with a non-positive duration is delivered at once.
func (s *Sim) After(d time.Duration) (<-chan time.Time, func() bool) {
	return s.At(s.Now().Add(d))
}

// At arms a timer for instant at itself, however far the clock moves
// while it is armed: one the clock has reached is delivered at once.
func (s *Sim) At(at time.Time) (<-chan time.Time, func() bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &simTimer{at: at, seq: s.seq, ch: make(chan time.Time, 1)}
	s.seq++
	if !at.After(s.now) {
		// Fire immediately: the deadline has already passed.
		t.ch <- s.now
		return t.ch, func() bool { return false }
	}
	s.timers[t] = struct{}{}
	stop := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.timers[t]; ok {
			delete(s.timers, t)
			return true
		}
		return false
	}
	return t.ch, stop
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline. Sleeping on a Sim that nothing advances blocks
// forever; tests advance from a separate goroutine or use timers instead.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch, _ := s.After(d)
	<-ch
}

// Advance moves the clock forward by d, firing any timers whose deadlines
// are reached, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	s.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to instant t. Moving backwards is a
// no-op. Timers fire in (deadline, arming) order; each timer observes
// Now equal to its own deadline, as a real clock would.
func (s *Sim) AdvanceTo(at time.Time) {
	for {
		s.mu.Lock()
		next := s.earliestTimerLocked(at)
		if next == nil {
			if at.After(s.now) {
				s.now = at
			}
			s.mu.Unlock()
			return
		}
		delete(s.timers, next)
		if next.at.After(s.now) {
			s.now = next.at
		}
		fireAt := s.now
		s.mu.Unlock()
		next.ch <- fireAt
	}
}

// earliestTimerLocked returns the armed timer with the earliest
// deadline at or before limit, breaking deadline ties by arming order.
// Callers hold s.mu.
func (s *Sim) earliestTimerLocked(limit time.Time) *simTimer {
	var next *simTimer
	for t := range s.timers {
		if t.at.After(limit) {
			continue
		}
		if next == nil || t.at.Before(next.at) ||
			(t.at.Equal(next.at) && t.seq < next.seq) {
			next = t
		}
	}
	return next
}

// PendingTimers reports how many timers are armed. Useful in tests to
// assert that protocol code released its timers.
func (s *Sim) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// Drift wraps a base clock and scales its rate by Rate relative to the
// instant the Drift was created: a Rate of 1.02 is a clock running 2%
// fast, 0.98 is 2% slow. It models the §5 failure in which "a server
// clock that advances too quickly can cause errors" and the benign
// inverses that merely generate extra traffic.
type Drift struct {
	base   Clock
	origin time.Time
	rate   float64
}

// NewDrift returns a clock that runs at rate times the speed of base.
// Rate must be positive.
func NewDrift(base Clock, rate float64) *Drift {
	if rate <= 0 {
		panic("clock: non-positive drift rate")
	}
	return &Drift{base: base, origin: base.Now(), rate: rate}
}

// Now implements Clock: origin + rate·(base elapsed).
func (d *Drift) Now() time.Time {
	elapsed := d.base.Now().Sub(d.origin)
	return d.origin.Add(time.Duration(float64(elapsed) * d.rate))
}

// After implements Clock. The duration is converted to base-clock time so
// that the timer fires when d has elapsed on the drifting clock.
func (d *Drift) After(dur time.Duration) (<-chan time.Time, func() bool) {
	return d.base.After(time.Duration(float64(dur) / d.rate))
}

// Sleep implements Clock.
func (d *Drift) Sleep(dur time.Duration) {
	d.base.Sleep(time.Duration(float64(dur) / d.rate))
}

// Rate reports the drift rate.
func (d *Drift) Rate() float64 { return d.rate }

// Skew wraps a base clock and offsets every reading by a fixed amount.
// It models bounded clock asynchrony: two well-behaved hosts differ by at
// most ε, the allowance the client subtracts when computing its effective
// term t_c (§3.1).
type Skew struct {
	base   Clock
	offset time.Duration
}

// NewSkew returns a clock reading base.Now().Add(offset).
func NewSkew(base Clock, offset time.Duration) *Skew {
	return &Skew{base: base, offset: offset}
}

// Now implements Clock.
func (s *Skew) Now() time.Time { return s.base.Now().Add(s.offset) }

// After implements Clock; durations are unaffected by a constant offset.
func (s *Skew) After(d time.Duration) (<-chan time.Time, func() bool) {
	return s.base.After(d)
}

// Sleep implements Clock.
func (s *Skew) Sleep(d time.Duration) { s.base.Sleep(d) }

// Offset reports the fixed offset.
func (s *Skew) Offset() time.Duration { return s.offset }
