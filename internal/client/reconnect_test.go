package client_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/client"
	"leases/internal/faultnet"
	"leases/internal/obs"
	"leases/internal/server"
	"leases/internal/vfs"
)

// startProxy threads a fault-injecting proxy in front of a test server.
func startProxy(t *testing.T, target string, o *obs.Observer) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.NewProxy(faultnet.ProxyConfig{Target: target, Seed: 1, Obs: o})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(p.Close)
	return p
}

func reconnectCfg(id string) client.Config {
	return client.Config{
		ID:                  id,
		Reconnect:           true,
		ReconnectBackoff:    10 * time.Millisecond,
		ReconnectMaxBackoff: 100 * time.Millisecond,
		RetryWait:           5 * time.Second,
		DialTimeout:         2 * time.Second,
		Seed:                42,
	}
}

// TestReconnectAfterSever severs the client's connection mid-workload
// through a faultnet proxy and requires the session layer to recover:
// cached leases dropped for revalidation, the re-hello served by the
// same server incarnation, operations resuming, the reconnect counted
// and hooks fired.
func TestReconnectAfterSever(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 5 * time.Second})
	seedFile(t, srv, "/f", "v1")
	proxy := startProxy(t, addr, nil)

	var drops, resumes atomic.Int64
	cfg := reconnectCfg("c1")
	cfg.OnDisconnect = func(error) { drops.Add(1) }
	cfg.OnReconnect = func(int) { resumes.Add(1) }
	c, err := client.Dial(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("read before sever: %v", err)
	}
	if c.HeldLeases() == 0 {
		t.Fatal("no leases held before sever")
	}
	bootBefore := c.ServerBoot()

	proxy.SeverAll()
	// The next read rides the retry path: it may observe the dead
	// connection, wait for the reconnect, and run again.
	if _, err := c.Read("/f"); err != nil {
		t.Fatalf("read across sever: %v", err)
	}
	// The session counts the reconnect before it runs the hook.
	waitFor(t, func() bool { return c.Metrics().Reconnects >= 1 && resumes.Load() >= 1 })
	if got := c.ServerBoot(); got != bootBefore {
		t.Fatalf("server boot changed across reconnect: %d != %d (server never restarted)", got, bootBefore)
	}
	if drops.Load() == 0 || resumes.Load() == 0 {
		t.Fatalf("hooks not fired: disconnects=%d reconnects=%d", drops.Load(), resumes.Load())
	}
	if err := c.Write("/f", []byte("v2")); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
}

// TestReconnectDropsCachedLeases requires the §5-safe default: a
// resumed session starts from an empty cache and revalidates, because
// a lease is only as good as the clock window it was granted in.
func TestReconnectDropsCachedLeases(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Minute})
	seedFile(t, srv, "/f", "v1")
	proxy := startProxy(t, addr, nil)

	c, err := client.Dial(proxy.Addr(), reconnectCfg("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	proxy.SeverAll()
	waitFor(t, func() bool { return c.Metrics().Reconnects >= 1 })
	if held := c.HeldLeases(); held != 0 {
		t.Fatalf("%d leases survived the reconnect; want 0 (revalidate-on-resume)", held)
	}
	// The next read must go back to the server, not the purged cache.
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	if after.ReadHits != before.ReadHits {
		t.Fatalf("read after reconnect hit the cache (hits %d -> %d)", before.ReadHits, after.ReadHits)
	}
}

// TestReconnectDisabledFailsTerminally preserves the seed behaviour:
// without Config.Reconnect a severed connection breaks the cache for
// good.
func TestReconnectDisabledFailsTerminally(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Second})
	seedFile(t, srv, "/f", "v1")
	proxy := startProxy(t, addr, nil)

	c, err := client.Dial(proxy.Addr(), client.Config{ID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	proxy.SeverAll()
	waitFor(t, func() bool {
		_, err := c.Read("/f")
		return errors.Is(err, client.ErrClosed)
	})
}

// TestReconnectConsistencyStress runs a writer and a reader through a
// proxy that severs every connection several times, and requires the
// reader to never observe content older than a write the writer has
// already seen acknowledged — the §2 invariant under connection churn.
func TestReconnectConsistencyStress(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 500 * time.Millisecond, WriteTimeout: 5 * time.Second})
	seedFile(t, srv, "/f", "seq=0")
	proxy := startProxy(t, addr, nil)

	w, err := client.Dial(proxy.Addr(), reconnectCfg("writer"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := client.Dial(proxy.Addr(), reconnectCfg("reader"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var floor atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var staleMu sync.Mutex
	var stale []string

	wg.Add(1)
	go func() {
		defer wg.Done()
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if err := w.Write("/f", []byte(seqPayload(seq))); err == nil {
				floor.Store(seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := floor.Load()
			data, err := r.Read("/f")
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if got, ok := parseSeqPayload(data); !ok || got < f {
				staleMu.Lock()
				if len(stale) < 8 {
					stale = append(stale, string(data))
				}
				staleMu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i := 0; i < 4; i++ {
		time.Sleep(150 * time.Millisecond)
		proxy.SeverAll()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(stale) > 0 {
		t.Fatalf("stale reads after acknowledged writes: %q", stale)
	}
	if floor.Load() == 0 {
		t.Fatal("no write was ever acknowledged")
	}
	if w.Metrics().Reconnects+r.Metrics().Reconnects == 0 {
		t.Fatal("stress never exercised a reconnect")
	}
}

func seqPayload(seq uint64) string {
	return "seq=" + itoa(seq)
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func parseSeqPayload(data []byte) (uint64, bool) {
	s := string(data)
	if len(s) < 5 || s[:4] != "seq=" {
		return 0, false
	}
	var n uint64
	for _, ch := range s[4:] {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + uint64(ch-'0')
	}
	return n, true
}

func seedFile(t *testing.T, srv *server.Server, path, content string) {
	t.Helper()
	a, err := srv.Store().Create(path, "root", vfs.DefaultPerm|vfs.WorldWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Store().WriteFile(a.ID, []byte(content)); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExtendFailureSurfaced is the renewal loop's failure contract: a
// background extension round that cannot reach the server is counted,
// traced, and reported to OnExtendFailure with the consecutive-failure
// count — the signal a driver acts on before its leases lapse.
func TestExtendFailureSurfaced(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: 300 * time.Millisecond})
	seedFile(t, srv, "/f", "v1")

	o := obs.New(obs.Config{})
	var mu sync.Mutex
	var counts []int
	var lastErr error
	c, err := client.Dial(addr, client.Config{
		ID:         "c1",
		AutoExtend: 50 * time.Millisecond,
		Obs:        o,
		OnExtendFailure: func(err error, consecutive int) {
			mu.Lock()
			counts = append(counts, consecutive)
			lastErr = err
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(counts) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("consecutive counts = %v, want 1,2,...", counts[:2])
	}
	if lastErr == nil {
		t.Fatal("hook fired with nil error")
	}
	found := false
	for _, ec := range o.EventCounts() {
		if ec.Type == "extend-failure" && ec.N >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no extend-failure events recorded: %+v", o.EventCounts())
	}
}

// TestExtendAllAcrossReconnectRevalidates races a batched renewal
// against a connection loss: the re-hello drops every lease, and the
// extension — retried on the new session — must not resurrect them.
// The server may re-grant (its records are keyed by client ID), but the
// client's invalidation fence keeps the purged cache purged until real
// revalidating reads refill it.
func TestExtendAllAcrossReconnectRevalidates(t *testing.T) {
	srv, addr := startServer(t, server.Config{Term: time.Minute})
	seedFile(t, srv, "/f", "v1")
	proxy := startProxy(t, addr, nil)

	c, err := client.Dial(proxy.Addr(), reconnectCfg("c1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if c.HeldLeases() == 0 {
		t.Fatal("no leases held before sever")
	}

	ext := c.StartExtendAll()
	proxy.SeverAll()
	// The future either completed before the sever or retries across the
	// reconnect; a server-side error would be a real failure.
	if err := ext.Wait(); err != nil && !errors.Is(err, client.ErrClosed) {
		t.Fatalf("extend across sever: %v", err)
	}
	waitFor(t, func() bool { return c.Metrics().Reconnects >= 1 })
	if held := c.HeldLeases(); held != 0 {
		t.Fatalf("%d leases survived reconnect despite in-flight extension; want 0", held)
	}
	// The next read must revalidate against the server, not the cache.
	before := c.Metrics()
	if _, err := c.Read("/f"); err != nil {
		t.Fatal(err)
	}
	if c.Metrics().ReadHits != before.ReadHits {
		t.Fatal("read after reconnect hit the purged cache")
	}
}
