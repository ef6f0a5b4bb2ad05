// Package delayline is a TCP forwarder that adds a fixed one-way
// propagation delay to a link, for benchmarks that must state the
// message delay they inject.
//
// Every chunk read from one side is stamped on arrival and written to
// the other side at arrival + Delay by the line's one release
// goroutine, so chunks sent back to back are each delayed by Delay —
// the behaviour of a long wire. internal/faultnet sleeps per chunk on
// the forwarding path instead, which turns k back-to-back frames into
// k serial sleeps and would make a pipelined sender measure the proxy.
//
// The release goroutine sleeps on a bench/hrtimer, not on a Go timer,
// which would deliver a 1ms line's chunks anywhere between 1 and 2ms.
//
// The line also counts what crosses it, per direction: bytes, and the
// internal/proto frames they carry (a four-byte little-endian length
// prefix followed by that many bytes), so a benchmark can report peer
// traffic per operation without instrumenting the peers.
package delayline

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"leases/bench/hrtimer"
)

// Line forwards connections accepted on Addr to a target, delaying each
// direction by Delay.
type Line struct {
	target string
	delay  time.Duration
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup // accept loop and pipes: everything that enqueues

	// queue carries every chunk of every connection to the release
	// goroutine. All chunks wait the same Delay, so arrival order is
	// release order and a FIFO serves where a timer heap would.
	queue    chan chunk
	timer    *hrtimer.Timer
	released chan struct{} // closed when the release goroutine exits

	up, down counter // dialer→target, target→dialer
}

type counter struct {
	frames, bytes atomic.Uint64
}

// Counts is the traffic one direction of a line has carried.
type Counts struct {
	Frames, Bytes uint64
}

// New starts a line on an ephemeral loopback port forwarding to target
// with the given one-way delay.
func New(target string, delay time.Duration) (*Line, error) {
	timer, err := hrtimer.New()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		timer.Close()
		return nil, err
	}
	l := &Line{
		target: target, delay: delay, ln: ln, timer: timer,
		conns:    make(map[net.Conn]struct{}),
		queue:    make(chan chunk, inFlight),
		released: make(chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	go l.releaseLoop()
	return l, nil
}

// Addr is the address to dial in place of the target.
func (l *Line) Addr() string { return l.ln.Addr().String() }

// Up reports the traffic carried from dialers to the target; Down the
// traffic carried back.
func (l *Line) Up() Counts   { return l.up.load() }
func (l *Line) Down() Counts { return l.down.load() }

func (c *counter) load() Counts {
	return Counts{Frames: c.frames.Load(), Bytes: c.bytes.Load()}
}

// Close stops accepting, severs every forwarded connection and waits
// for the line's goroutines to exit.
func (l *Line) Close() {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.ln.Close()
	l.wg.Wait()
	close(l.queue)
	<-l.released
	l.timer.Close()
}

// track registers a leg so Close can sever it; it reports false (and
// closes the leg) when the line is already closed.
func (l *Line) track(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *Line) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	c.Close()
}

func (l *Line) acceptLoop() {
	defer l.wg.Done()
	for {
		src, err := l.ln.Accept()
		if err != nil {
			return
		}
		if !l.track(src) {
			return
		}
		dst, err := net.DialTimeout("tcp", l.target, 2*time.Second)
		if err != nil {
			l.untrack(src)
			continue
		}
		if !l.track(dst) {
			l.untrack(src)
			return
		}
		l.wg.Add(1)
		go l.pipe(src, dst)
	}
}

// pipe runs both directions of one forwarded connection and tears both
// legs down when either direction ends.
func (l *Line) pipe(src, dst net.Conn) {
	defer l.wg.Done()
	var dirs sync.WaitGroup
	dirs.Add(2)
	go func() {
		defer dirs.Done()
		l.forward(src, dst, &l.up)
		src.Close()
		dst.Close()
	}()
	go func() {
		defer dirs.Done()
		l.forward(dst, src, &l.down)
		src.Close()
		dst.Close()
	}()
	dirs.Wait()
	l.untrack(src)
	l.untrack(dst)
}

// chunk is one read from a source leg, the leg it is bound for and the
// instant it is due there.
type chunk struct {
	data     []byte
	src, dst net.Conn
	due      time.Time
}

// inFlight bounds the chunks a line holds between arrival and release.
// At Delay = 1ms the peers would have to issue more than a thousand
// separate writes per millisecond to fill it; a full queue then blocks
// the readers, which is TCP backpressure, not loss.
const inFlight = 1024

// forward stamps what arrives on src and queues it for dst, until src
// is drained or fails.
func (l *Line) forward(src, dst net.Conn, cnt *counter) {
	var fc frameCounter
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			due := time.Now().Add(l.delay)
			cnt.bytes.Add(uint64(n))
			cnt.frames.Add(fc.feed(buf[:n]))
			l.queue <- chunk{data: append([]byte(nil), buf[:n]...), src: src, dst: dst, due: due}
		}
		if err != nil {
			return
		}
	}
}

// releaseLoop writes each chunk to its destination when it is due. A
// failed write severs that connection's source leg too, so its reader
// stops; chunks still queued for it fail the same way and are dropped.
func (l *Line) releaseLoop() {
	defer close(l.released)
	for c := range l.queue {
		// A failed sleep only releases the chunk early.
		_ = l.timer.SleepUntil(c.due)
		if _, err := c.dst.Write(c.data); err != nil {
			c.src.Close()
		}
	}
}

// frameCounter counts length-prefixed frames in a byte stream fed to it
// in arbitrary pieces.
type frameCounter struct {
	hdr  [4]byte
	have int    // length-prefix bytes collected so far
	body uint32 // body bytes still to skip
}

// feed consumes p and returns how many frames completed inside it.
func (fc *frameCounter) feed(p []byte) (frames uint64) {
	for len(p) > 0 {
		if fc.body > 0 {
			n := uint32(len(p))
			if n > fc.body {
				n = fc.body
			}
			fc.body -= n
			p = p[n:]
			if fc.body == 0 {
				frames++
			}
			continue
		}
		n := copy(fc.hdr[fc.have:], p)
		fc.have += n
		p = p[n:]
		if fc.have == len(fc.hdr) {
			fc.have = 0
			fc.body = binary.LittleEndian.Uint32(fc.hdr[:])
			if fc.body == 0 {
				frames++
			}
		}
	}
	return frames
}
