package delayline

import (
	"encoding/binary"
	"io"
	"net"
	"sort"
	"testing"
	"time"
)

// sink accepts one connection and reports, per 12-byte frame it reads,
// how long after its embedded send stamp the frame arrived.
func sink(t *testing.T, frames int) (addr string, delays <-chan []time.Duration) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []time.Duration, 1)
	go func() {
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			out <- nil
			return
		}
		defer c.Close()
		var got []time.Duration
		frame := make([]byte, 12)
		for i := 0; i < frames; i++ {
			if _, err := io.ReadFull(c, frame); err != nil {
				break
			}
			sent := time.Unix(0, int64(binary.LittleEndian.Uint64(frame[4:])))
			got = append(got, time.Since(sent))
		}
		out <- got
	}()
	return ln.Addr().String(), out
}

// backToBack sends k frames back to back through a fresh line and
// returns each frame's send-to-arrival time, sorted.
func backToBack(t *testing.T, k int, delay time.Duration) []time.Duration {
	t.Helper()
	addr, delays := sink(t, k)
	l, err := New(addr, delay)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Let the line finish dialing the sink, so connection set-up is not
	// charged to the first frame.
	time.Sleep(20 * time.Millisecond)
	frame := make([]byte, 12)
	binary.LittleEndian.PutUint32(frame, 8)
	for i := 0; i < k; i++ {
		binary.LittleEndian.PutUint64(frame[4:], uint64(time.Now().UnixNano()))
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	got := <-delays
	if len(got) != k {
		t.Fatalf("sink read %d of %d frames", len(got), k)
	}
	if up := l.Up(); up.Frames != uint64(k) || up.Bytes != uint64(k*12) {
		t.Errorf("line counted %d frames, %d bytes upstream; want %d, %d", up.Frames, up.Bytes, k, k*12)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// TestBackToBackChunksEachSeeOneDelay is the property the line exists
// for: k frames written back to back each arrive one delay after they
// were sent, where a forwarder that sleeps per chunk delivers the last
// one k delays late.
func TestBackToBackChunksEachSeeOneDelay(t *testing.T) {
	const (
		k     = 20
		delay = 5 * time.Millisecond
		tol   = 200 * time.Microsecond
	)
	// What the test sees beyond the delay is two goroutine wake-ups, in
	// the line's reader and in the sink, which a loaded machine or the
	// race detector stretch. That noise only ever adds, so the tolerance
	// has to hold on one attempt of a few; the bounds that tell this
	// line from a per-chunk sleeper hold on every attempt.
	var med time.Duration
	for attempt := 0; attempt < 10; attempt++ {
		got := backToBack(t, k, delay)
		if got[0] < delay {
			t.Fatalf("a frame arrived after %v, before the %v delay", got[0], delay)
		}
		if got[k-1] > 2*delay {
			t.Fatalf("slowest frame arrived %v after it was sent: delays add up per chunk (%v)", got[k-1], got)
		}
		if med = got[k/2]; med <= delay+tol {
			return
		}
	}
	t.Errorf("median frame arrived %v after it was sent, want %v ± %v", med, delay, tol)
}

func TestFrameCounterAcrossSplitReads(t *testing.T) {
	// Three frames with bodies of 1, 0 and 5 bytes, fed one byte at a
	// time and then all at once.
	var stream []byte
	for _, n := range []int{1, 0, 5} {
		stream = binary.LittleEndian.AppendUint32(stream, uint32(n))
		stream = append(stream, make([]byte, n)...)
	}
	var byByte frameCounter
	var frames uint64
	for _, b := range stream {
		frames += byByte.feed([]byte{b})
	}
	if frames != 3 {
		t.Errorf("byte-at-a-time feed counted %d frames, want 3", frames)
	}
	var whole frameCounter
	if n := whole.feed(stream); n != 3 {
		t.Errorf("single feed counted %d frames, want 3", n)
	}
}

func TestCloseSeversAndReturns(t *testing.T) {
	addr, _ := sink(t, 1)
	l, err := New(addr, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() { l.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a connection open")
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after Close")
	}
}
