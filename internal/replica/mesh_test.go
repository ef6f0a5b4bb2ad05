package replica

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leases/internal/clock"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
)

// countConn counts what crosses a master's outgoing peer connection:
// Write calls carrying at least one TReplApply frame (the send goroutine
// writes whole frames, so a buffer parses cleanly; election traffic
// sharing the connection is not counted), the TReplApply frames in
// them, and Read calls that returned bytes (only RPC replies come back
// on this leg). Writes carrying a TReplApply block until gate is closed.
type countConn struct {
	net.Conn
	gate                         chan struct{}
	open                         sync.Once
	applyWrites, applyFrames, rd atomic.Int64
}

func (c *countConn) openGate() { c.open.Do(func() { close(c.gate) }) }

func (c *countConn) Write(b []byte) (int, error) {
	frames := 0
	for rest := b; len(rest) >= 5; {
		n := int(binary.LittleEndian.Uint32(rest))
		if proto.MsgType(rest[4]) == proto.TReplApply {
			frames++
		}
		rest = rest[4+n:]
	}
	if frames > 0 {
		<-c.gate
		c.applyWrites.Add(1)
		c.applyFrames.Add(int64(frames))
	}
	return c.Conn.Write(b)
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.rd.Add(1)
	}
	return n, err
}

// pendingCalls reports how many RPCs await an answer from p.
func pendingCalls(p *peer) int {
	p.callsMu.Lock()
	defer p.callsMu.Unlock()
	return len(p.calls)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// meshMaster starts a healthy three-replica set that acknowledges every
// apply and returns its master once replication passes the fence.
func meshMaster(t *testing.T) *Node {
	t.Helper()
	// TestMeshBatchesBursts's gate also holds up the master's renewals,
	// which share the send queue: the term must outlast a slow machine's
	// stall.
	const term = time.Second
	addrs := freeAddrs(t, 3)
	var nodes []*Node
	for i := range addrs {
		nd, err := NewNode(NodeConfig{
			ID: i, Peers: addrs, Term: term, Allowance: term / 10, Seed: int64(i),
			OnReplApply: func(FileState) (bool, error) { return true, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		t.Cleanup(nd.Stop)
	}
	id := waitMaster(nodes, nil, 10*time.Second)
	if id < 0 {
		t.Fatal("no master")
	}
	master := nodes[id]
	// A candidate that lost the first election may have left the
	// followers a promise that fences the master until it renews.
	waitFor(t, "replication to pass the fence", func() bool {
		return master.ReplicateWrite(tracing.Context{}, FileState{Path: "/probe", Seq: 1}) == nil
	})
	return master
}

// TestMeshBurstBeyondQueueAllApply: a burst of far more concurrent
// writes than any queue bound is delayed, never refused — every one
// replicates, and the master keeps its lease throughout.
func TestMeshBurstBeyondQueueAllApply(t *testing.T) {
	master := meshMaster(t)
	const k = 8 * maxQueuedMsgs
	for round := 0; round < 3; round++ {
		errs := make(chan error, k)
		for i := 0; i < k; i++ {
			fs := FileState{Path: fmt.Sprintf("/r%d/f%d", round, i), Seq: 1, Data: []byte("x")}
			go func() { errs <- master.ReplicateWrite(tracing.Context{}, fs) }()
		}
		failed := 0
		var first error
		for i := 0; i < k; i++ {
			if err := <-errs; err != nil {
				if failed++; first == nil {
					first = err
				}
			}
		}
		if failed > 0 {
			t.Fatalf("round %d: %d of %d concurrent ReplicateWrites failed, first: %v", round, failed, k, first)
		}
	}
	if !master.IsMaster() {
		t.Error("the burst cost the master its lease")
	}
}

// TestMeshBatchesBursts: k writes replicated at once reach each peer in
// fewer than k write calls and their acknowledgements come back in
// fewer than k reads — the mesh pays per burst, not per frame.
func TestMeshBatchesBursts(t *testing.T) {
	master := meshMaster(t)
	var conns []*countConn
	for _, p := range master.peers {
		if p == nil {
			continue
		}
		c, err := net.Dial("tcp", p.addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countConn{Conn: c, gate: make(chan struct{})}
		defer cc.openGate() // a failed wait must not leave the send goroutine parked
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.attachLocked(cc)
		p.mu.Unlock()
		conns = append(conns, cc)
	}

	const k = 16
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		fs := FileState{Path: fmt.Sprintf("/f%d", i), Seq: 1, Data: []byte("x")}
		go func() { errs <- master.ReplicateWrite(tracing.Context{}, fs) }()
	}
	// With the first write of each connection held at the gate, the
	// other k-1 requests pile up behind it.
	waitFor(t, "every RPC to be queued", func() bool {
		for _, p := range master.peers {
			if p != nil && pendingCalls(p) < k {
				return false
			}
		}
		return true
	})
	for _, cc := range conns {
		cc.openGate()
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Errorf("ReplicateWrite: %v", err)
		}
	}
	waitFor(t, "every peer to answer", func() bool {
		for _, p := range master.peers {
			if p != nil && pendingCalls(p) > 0 {
				return false
			}
		}
		return true
	})
	for i, cc := range conns {
		w, f, r := cc.applyWrites.Load(), cc.applyFrames.Load(), cc.rd.Load()
		if f < k || w >= k || r >= k {
			t.Errorf("peer conn %d: %d apply frames went out in %d writes and came back in %d reads; want %d frames in fewer than %d of each", i, f, w, r, k, k)
		}
	}
}

// writeCounter counts the Write calls on a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestMeshRepliesFlushOnDrainedInput: the inbound leg answers k
// requests that arrived together with one write, and a lone request at
// once.
func TestMeshRepliesFlushOnDrainedInput(t *testing.T) {
	nd, err := NewNode(NodeConfig{ID: 1, Peers: freeAddrs(t, 2), Term: nodeTerm, Clock: clock.NewSim()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	near, far := net.Pipe()
	defer near.Close()
	srv := &writeCounter{Conn: far}
	nd.wg.Add(1)
	go nd.serveConn(srv)

	// This node follows nobody, so each request is refused — a reply
	// like any other.
	const k = 8
	send := func(first, n int) {
		var buf []byte
		for i := 0; i < n; i++ {
			buf, _ = proto.AppendFrame(buf, proto.Frame{Type: proto.TReplApply, ReqID: uint64(first + i), Payload: applyPayload()})
		}
		go near.Write(buf)
	}
	fr := proto.NewFrameReader(near)
	recv := func(first, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f, err := fr.Next()
			if err != nil || f.ReqID != uint64(first+i) || f.Type != proto.TError {
				t.Fatalf("reply %d: %+v, %v", first+i, f, err)
			}
		}
	}
	send(1, k)
	recv(1, k)
	if got := srv.writes.Load(); got != 1 {
		t.Errorf("%d requests in one read were answered in %d writes, want 1", k, got)
	}
	send(k+1, 1)
	recv(k+1, 1)
	if got := srv.writes.Load(); got != 2 {
		t.Errorf("a lone request brought the write count to %d, want 2", got)
	}
}

// silentPeer is a mesh listener that reads frames and, when answer is
// set, acknowledges each TReplApply as applied.
type silentPeer struct {
	ln     net.Listener
	answer bool
	frames atomic.Int64
	mu     sync.Mutex
	conns  []net.Conn
}

func startSilentPeer(t *testing.T, answer bool) *silentPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sp := &silentPeer{ln: ln, answer: answer}
	t.Cleanup(sp.close)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
			go sp.serve(c)
		}
	}()
	return sp
}

func (sp *silentPeer) serve(c net.Conn) {
	fr := proto.NewFrameReader(c)
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		sp.frames.Add(1)
		if sp.answer && f.Type == proto.TReplApply {
			proto.WriteFrame(c, proto.Frame{Type: proto.TOK, ReqID: f.ReqID, Payload: []byte{1}})
		}
	}
}

// sever closes every accepted connection but keeps listening.
func (sp *silentPeer) sever() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, c := range sp.conns {
		c.Close()
	}
	sp.conns = nil
}

func (sp *silentPeer) close() {
	sp.ln.Close()
	sp.sever()
}

// frozenNode is replica 0 of a two-replica set whose only peer is sp,
// on a simulated clock that moves only when the test advances it: any
// RPC that completes without an Advance had no timer in its path.
func frozenNode(t *testing.T, sp *silentPeer) (*Node, *clock.Sim, *obs.Observer) {
	t.Helper()
	clk := clock.NewSim()
	o := obs.New(obs.Config{Now: clk.Now})
	nd, err := NewNode(NodeConfig{
		ID: 0, Peers: []string{freeAddrs(t, 1)[0], sp.ln.Addr().String()},
		Term: nodeTerm, Allowance: nodeTerm / 10, Clock: clk, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd, clk, o
}

// shipCount reports how many round-trips to peer 1 the observer timed:
// each call is observed exactly when it is completed.
func shipCount(o *obs.Observer) int64 {
	for _, l := range o.OpLatencies() {
		if l.Op == "repl-ship-peer1" {
			return l.Hist.Count
		}
	}
	return 0
}

func applyPayload() []byte {
	var e proto.Enc
	e.I64(0).U64(2).U64(1).Str("/f").Blob([]byte("x"))
	return e.Bytes()
}

// TestMeshLoneFrameNeedsNoTimer: a single RPC is written as soon as the
// send goroutine runs and completes with the clock standing still.
func TestMeshLoneFrameNeedsNoTimer(t *testing.T) {
	sp := startSilentPeer(t, true)
	nd, _, o := frozenNode(t, sp)
	if acks := nd.broadcastRPC(tracing.Context{}, "", nd.shipOps, proto.TReplApply, applyPayload(), 1, appliedReply); acks != 1 {
		t.Fatalf("lone RPC counted %d acks, want 1", acks)
	}
	if got := sp.frames.Load(); got != 1 {
		t.Errorf("peer received %d frames, want 1", got)
	}
	if got := shipCount(o); got != 1 {
		t.Errorf("%d round-trips observed, want 1", got)
	}
}

// TestMeshSeveredConnFailsPendingOnce: when the peer connection dies,
// every RPC pending on it fails — once each, with no clock movement —
// and the table is left empty.
func TestMeshSeveredConnFailsPendingOnce(t *testing.T) {
	sp := startSilentPeer(t, false)
	nd, _, o := frozenNode(t, sp)
	const k = 8
	acks := make(chan int, k)
	for i := 0; i < k; i++ {
		go func() {
			acks <- nd.broadcastRPC(tracing.Context{}, "", nd.shipOps, proto.TReplApply, applyPayload(), 1, appliedReply)
		}()
	}
	waitFor(t, "the peer to hold every request", func() bool { return sp.frames.Load() == k })
	sp.sever()
	for i := 0; i < k; i++ {
		if got := <-acks; got != 0 {
			t.Errorf("severed RPC counted %d acks", got)
		}
	}
	if got := pendingCalls(nd.peers[1]); got != 0 {
		t.Errorf("%d calls still pending after the connection died", got)
	}
	if got := shipCount(o); got != k {
		t.Errorf("%d calls completed, want each of %d exactly once", got, k)
	}
}

// TestMeshBroadcastDeadlineAndSweep: a broadcast an unresponsive peer
// never answers returns at the one RPC deadline, and the timer loop
// then takes the straggling call off the table.
func TestMeshBroadcastDeadlineAndSweep(t *testing.T) {
	sp := startSilentPeer(t, false)
	nd, clk, o := frozenNode(t, sp)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	acks := make(chan int, 1)
	go func() {
		acks <- nd.broadcastRPC(tracing.Context{}, "", nd.shipOps, proto.TReplApply, applyPayload(), 1, appliedReply)
	}()
	waitFor(t, "the peer to hold the request", func() bool { return sp.frames.Load() >= 1 })
	select {
	case got := <-acks:
		t.Fatalf("broadcast returned %d acks with the clock standing still", got)
	case <-time.After(20 * time.Millisecond):
	}
	waitFor(t, "the deadline and the sweep", func() bool {
		clk.Advance(nd.cfg.RPCTimeout)
		return pendingCalls(nd.peers[1]) == 0
	})
	if got := <-acks; got != 0 {
		t.Errorf("unanswered broadcast counted %d acks", got)
	}
	if got := shipCount(o); got != 1 {
		t.Errorf("straggler completed %d times, want 1", got)
	}
}

// TestMeshSweepPrunesQueueBehindHungPeer: behind a peer that has stopped
// reading, the requests of calls the sweep timed out leave the send
// queue with them instead of piling up for as long as it hangs.
func TestMeshSweepPrunesQueueBehindHungPeer(t *testing.T) {
	sp := startSilentPeer(t, false)
	nd, clk, _ := frozenNode(t, sp)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	p := nd.peers[1]
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	hung := &countConn{Conn: c, gate: make(chan struct{})}
	defer hung.openGate()
	p.mu.Lock()
	p.attachLocked(hung)
	p.mu.Unlock()

	queued := func() (rpcs int) { // election messages share the queue
		p.callsMu.Lock()
		defer p.callsMu.Unlock()
		for _, f := range p.queue {
			if f.reqID != 0 {
				rpcs++
			}
		}
		return rpcs
	}
	const k = 8
	acks := make(chan int, k)
	for i := 0; i < k; i++ {
		go func() {
			acks <- nd.broadcastRPC(tracing.Context{}, "", nd.shipOps, proto.TReplApply, applyPayload(), 1, appliedReply)
		}()
		// One at a time, so that the first is alone in the write that hangs.
		waitFor(t, "the request to be registered", func() bool { return pendingCalls(p) == i+1 })
		if i == 0 {
			waitFor(t, "the send goroutine to take the first request", func() bool { return queued() == 0 })
		}
	}
	if got := queued(); got != k-1 {
		t.Fatalf("%d requests queued behind the hung write, want %d", got, k-1)
	}
	waitFor(t, "the sweep", func() bool {
		clk.Advance(nd.cfg.RPCTimeout)
		return pendingCalls(p) == 0
	})
	for i := 0; i < k; i++ {
		if got := <-acks; got != 0 {
			t.Errorf("RPC to a hung peer counted %d acks", got)
		}
	}
	if got := queued(); got != 0 {
		t.Errorf("%d requests still queued after their calls timed out", got)
	}
}

// TestMeshRedialsLeaveNoGoroutine: a mesh connection's goroutines end
// with it. k times the peer severs the node's outgoing link and the next
// RPC re-dials it, and k times a peer dials in and hangs up; the node's
// goroutine count then comes back to where one dial left it.
func TestMeshRedialsLeaveNoGoroutine(t *testing.T) {
	sp := startSilentPeer(t, true)
	nd, _, _ := frozenNode(t, sp)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	ship := func() {
		t.Helper()
		if acks := nd.broadcastRPC(tracing.Context{}, "", nd.shipOps, proto.TReplApply, applyPayload(), 1, appliedReply); acks != 1 {
			t.Fatalf("RPC counted %d acks, want 1", acks)
		}
	}
	link := func() net.Conn {
		p := nd.peers[1]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.conn
	}
	ship()
	want := runtime.NumGoroutine()
	const k = 8
	for i := 0; i < k; i++ {
		severed := link()
		sp.sever()
		waitFor(t, "the severed link to drop", func() bool { return link() != severed })
		ship()
		c, err := net.Dial("tcp", nd.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	waitFor(t, fmt.Sprintf("the goroutine count after one dial (%d), %d re-dials later", want, k), func() bool {
		return runtime.NumGoroutine() <= want
	})
}
