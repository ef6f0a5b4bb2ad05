// Package hrtimer sleeps to a deadline with microsecond accuracy, which
// a Go timer does not give an otherwise idle process: its threads wait
// for timers inside epoll_wait, whose timeout is whole milliseconds, so
// a 1ms sleep ends anywhere between 1 and 2ms later. The benchmark's
// injected link delay and its open-loop send schedule both need better.
//
// A Timer is a timerfd read through the runtime's network poller: the
// sleeping goroutine parks like one waiting for a socket and is woken
// when the kernel's high-resolution timer makes the descriptor
// readable. Unlike sleeping in nanosleep(2) it holds no scheduler slot
// while it waits — with GOMAXPROCS = 2, two goroutines asleep in a
// system call leave nothing to run the rest of the process on.
package hrtimer

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

const (
	clockMonotonic = 1
	tfdNonblock    = 0o4000
	tfdCloexec     = 0o2000000
)

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

// Timer sleeps one goroutine at a time.
type Timer struct {
	f   *os.File
	buf [8]byte
}

// New creates a timer; Close releases its descriptor.
func New() (*Timer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor handed to os.NewFile is registered with
	// the poller, so Read parks the goroutine instead of the thread.
	return &Timer{f: os.NewFile(fd, "timerfd")}, nil
}

// Close releases the timer.
func (t *Timer) Close() error { return t.f.Close() }

// SleepUntil returns once deadline has passed. A deadline already past
// costs no system call.
func (t *Timer) SleepUntil(deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	// The read returns the expiration count once the timer has fired.
	_, err := t.f.Read(t.buf[:])
	return err
}
