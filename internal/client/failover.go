// Replica-set failover: the client half of the replicated lease
// service (internal/replica). A replicated deployment runs N leasesrv
// replicas of which exactly one — the PaxosLease master — accepts
// sessions; the rest refuse the hello with a NOT_MASTER redirect
// carrying their belief about the master's replica index. The client
// holds the same static replica list every server was started with
// (Config.Replicas, in replica-ID order), so the index is all a
// redirect needs to carry.
//
// Failover composes with the existing session layer rather than
// duplicating it: a master crash severs the connection, connLost drops
// the caches and starts the reconnect loop, and the only new behavior
// is WHERE the loop redials — the cursor below steers it by redirect
// hints, falling back to round-robin when nobody knows. In-flight
// pipelined calls ride the machinery unchanged: they park on the
// session's ready channel and resubmit against the new master within
// their retry budgets.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"leases/internal/clock"
)

// notMasterError is a hello refused by a replica that does not hold
// the master lease. master is that replica's belief about who does
// (-1 when it has none — mid-election, or a fresh boot).
type notMasterError struct{ master int }

func (e notMasterError) Error() string {
	return fmt.Sprintf("client: replica is not the master (hint %d)", e.master)
}

// replicaCursor decides which replica the next dial should target. It
// prefers the latest usable redirect hint; without one it walks the
// list round-robin, which terminates because every replica either
// accepts, redirects, or fails the dial — and an election eventually
// makes one accept.
type replicaCursor struct {
	mu        sync.Mutex
	addrs     []string
	preferred int // hinted/confirmed master index; -1 none
	next      int // round-robin position when no preference
	last      int // index handed out by the latest pick
}

func newReplicaCursor(addrs []string) *replicaCursor {
	return &replicaCursor{addrs: addrs, preferred: -1, last: -1}
}

// pick returns the address to dial next.
func (rc *replicaCursor) pick() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	i := rc.preferred
	if i < 0 {
		i = rc.next
		rc.next = (rc.next + 1) % len(rc.addrs)
	}
	rc.last = i
	return rc.addrs[i]
}

// ok confirms the latest pick accepted a session, so future reconnects
// start there.
func (rc *replicaCursor) ok() {
	rc.mu.Lock()
	rc.preferred = rc.last
	rc.mu.Unlock()
}

// note folds one failed attempt back in and reports whether it
// produced an actionable redirect (worth redialing immediately, with
// no backoff). A NOT_MASTER refusal with a fresh hint installs it; a
// dial failure, a hint pointing at the replica that just refused, or
// no hint at all clears the preference so the next pick walks on.
func (rc *replicaCursor) note(err error) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var nm notMasterError
	if errors.As(err, &nm) && nm.master >= 0 && nm.master < len(rc.addrs) && nm.master != rc.last {
		rc.preferred = nm.master
		return true
	}
	rc.preferred = -1
	return false
}

// DialReplicas connects to the master of a replicated deployment
// (Config.Replicas, in the replica-ID order every server's -peers flag
// uses) and enables session failover: on disconnect the reconnect loop
// redials by redirect hint. The initial connect rides out elections —
// a fresh replica set elects within a few round trips once every
// replica vouches for every other, but waits out a term while one stays
// silent, and a new master serves only after its catch-up sync —
// bounded by Config.RetryWait (default 30s).
func DialReplicas(cfg Config) (*Cache, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("client: empty replica list")
	}
	rc := newReplicaCursor(cfg.Replicas)
	cfg.cursor = rc
	if cfg.Redial == nil {
		cfg.Redial = func() (net.Conn, error) {
			d := net.Dialer{Timeout: dialTimeout(cfg), KeepAlive: 30 * time.Second}
			return d.Dial("tcp", rc.pick())
		}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	wait := cfg.RetryWait
	if wait <= 0 {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	var lastErr error
	for {
		nc, err := cfg.Redial()
		if err == nil {
			c, cerr := NewFromConn(nc, cfg)
			if cerr == nil {
				rc.ok()
				return c, nil
			}
			err = cerr
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: no master reachable in replica set: %w", lastErr)
		}
		if rc.note(err) {
			continue // redirected: dial the hinted master immediately
		}
		clk.Sleep(50 * time.Millisecond)
	}
}
