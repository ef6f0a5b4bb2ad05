package client

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"leases/internal/obs"
	"leases/internal/proto"
)

// Session resilience: the paper's §5 argument is that a lease makes
// every non-Byzantine transport failure cost bounded delay, never
// inconsistency — but only if the endpoints actually survive the
// failure. This file is the client half of that bargain: when the
// connection dies the cache (1) discards every cached lease and datum,
// because a lease is only as good as the clock window it was granted
// in and a resumed session must revalidate; (2) redials with capped
// exponential backoff plus seeded jitter; (3) re-hellos under the same
// ID, which the server treats idempotently (lease records are keyed by
// client ID, not connection); and (4) releases any operations parked
// on the session, which retry within their per-op budget.

// sessionEnabled reports whether the reconnect machinery is armed.
func (c *Cache) sessionEnabled() bool {
	return c.cfg.Reconnect && c.cfg.Redial != nil
}

func (c *Cache) retryBudget() int {
	if !c.sessionEnabled() {
		return 0
	}
	if c.cfg.RetryBudget < 0 {
		return 0
	}
	if c.cfg.RetryBudget == 0 {
		return 2
	}
	return c.cfg.RetryBudget
}

func (c *Cache) backoffBounds() (base, max time.Duration) {
	base = c.cfg.ReconnectBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max = c.cfg.ReconnectMaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < base {
		max = base
	}
	return base, max
}

func (c *Cache) retryWait() time.Duration {
	if c.cfg.RetryWait > 0 {
		return c.cfg.RetryWait
	}
	return 30 * time.Second
}

// connLost runs on the read loop of a dying connection. Without the
// session layer it marks the cache terminally broken (the seed
// behaviour); with it, it tears down the session state and starts the
// reconnect loop. Either way every in-flight call is released with
// ErrClosed — with the session up, callers retry within their budget.
func (c *Cache) connLost(nc net.Conn, err error) {
	nc.Close()
	// Tear down this incarnation's coalescer: with the transport closed
	// any flush in flight errors out fast, stalled appenders unblock,
	// and frames still pending die with the connection — they are never
	// replayed onto the next one. (The completion table decides what
	// retries.)
	c.mu.Lock()
	var co *proto.Coalescer
	if c.nc == nc {
		co = c.co
	}
	c.mu.Unlock()
	if co != nil {
		co.Close()
	}
	select {
	case <-c.stopping:
		// Deliberate Close/Abandon: fail callers terminally.
		c.failSession(err)
		return
	default:
	}
	if !c.sessionEnabled() {
		c.failSession(err)
		return
	}

	c.mu.Lock()
	if c.nc != nc {
		// A stale read loop noticing its conn died after the session
		// already moved on; the newer loop owns the state.
		c.mu.Unlock()
		return
	}
	c.down = true
	c.ready = make(chan struct{})
	c.failCallsLocked()
	c.core.DropAll()
	c.mu.Unlock()

	if c.cfg.OnDisconnect != nil {
		c.cfg.OnDisconnect(err)
	}
	c.wg.Add(1)
	go c.reconnectLoop(c.clk.Now())
}

// failSession terminally breaks the cache: all pending and future calls
// fail with ErrClosed.
func (c *Cache) failSession(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrClosed, err)
	}
	c.failCallsLocked()
	c.mu.Unlock()
}

// failCallsLocked releases every in-flight call. Callers hold c.mu.
func (c *Cache) failCallsLocked() {
	for id, ch := range c.calls {
		delete(c.calls, id)
		close(ch)
	}
}

// reconnectLoop redials until the session is back or the cache closes.
// Backoff doubles from ReconnectBackoff to ReconnectMaxBackoff with
// uniform jitter in [0, backoff/2), seeded for reproducibility.
func (c *Cache) reconnectLoop(downSince time.Time) {
	defer c.wg.Done()
	seed := c.cfg.Seed
	if seed == 0 {
		seed = c.clk.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	base, max := c.backoffBounds()
	backoff := base
	for attempts := 0; ; attempts++ {
		select {
		case <-c.stopping:
			return
		default:
		}
		nc, err := c.cfg.Redial()
		if err == nil {
			var fr *proto.FrameReader
			var boot uint64
			if fr, boot, err = handshake(nc, c.cfg); err == nil {
				if rc := c.cfg.cursor; rc != nil {
					rc.ok()
				}
				c.finishReconnect(nc, fr, boot, attempts, downSince)
				return
			}
			nc.Close()
		}
		if rc := c.cfg.cursor; rc != nil && rc.note(err) {
			// NOT_MASTER with a fresh hint: the next dial goes straight
			// at the hinted master. No backoff — a failover should land
			// every client on the new master within one cycle.
			continue
		}
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff/2)+1))
		if backoff *= 2; backoff > max {
			backoff = max
		}
		ch, stopTimer := c.clk.After(sleep)
		select {
		case <-c.stopping:
			stopTimer()
			return
		case <-ch:
		}
	}
}

// finishReconnect installs the new connection — with a fresh coalescer
// incarnation — and wakes every operation parked on the session.
func (c *Cache) finishReconnect(nc net.Conn, fr *proto.FrameReader, boot uint64, attempts int, downSince time.Time) {
	co := c.newCoalescer(nc)
	fr.Stats = c.wire
	c.mu.Lock()
	c.nc = nc
	c.fr = fr
	c.co = co
	c.serverBoot = boot
	c.down = false
	c.metrics.Reconnects++
	ready := c.ready
	c.mu.Unlock()

	c.wg.Add(1)
	go c.readLoop(nc, fr, co)
	close(ready)
	c.kickExtend()
	if c.cfg.Obs.Enabled() {
		c.cfg.Obs.Record(obs.Event{
			Type: obs.EvReconnect, Client: c.cfg.ID,
			Wait: c.clk.Now().Sub(downSince),
		})
	}
	if c.cfg.OnReconnect != nil {
		c.cfg.OnReconnect(attempts)
	}
}

// awaitReady blocks until the session is connected, the cache closes,
// or wait elapses. It reports whether a retry is worth attempting.
func (c *Cache) awaitReady(wait time.Duration) bool {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return false
	}
	ready := c.ready
	c.mu.Unlock()
	timeout, stopTimer := c.clk.After(wait)
	defer stopTimer()
	select {
	case <-ready:
		return true
	case <-c.stopping:
		return false
	case <-timeout:
		return false
	}
}
