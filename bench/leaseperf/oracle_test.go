package main

import "testing"

// staleServer is a deliberately wrong file service: it acknowledges
// every write but keeps serving the contents it had `lag` writes ago.
type staleServer struct {
	pl      *payloads
	history [][]byte
	lag     int
}

func (s *staleServer) write(file int, seq uint64) {
	s.history = append(s.history, s.pl.make(file, seq))
}

func (s *staleServer) read() []byte {
	i := len(s.history) - 1 - s.lag
	if i < 0 {
		i = 0
	}
	return s.history[i]
}

func TestOracleCatchesAStaleRead(t *testing.T) {
	pl := newPayloads(1)
	for _, lag := range []int{0, 1, 3} {
		or := newOracle(4)
		srv := &staleServer{pl: pl, lag: lag}
		srv.write(2, 0)
		good := 0
		for seq := uint64(1); seq <= 10; seq++ {
			srv.write(2, seq)
			or.ack(2, seq)
			floor := or.floor(2)
			if or.check(2, floor, srv.read()) {
				good++
			}
		}
		wantStale := int64(10)
		if lag == 0 {
			wantStale = 0
		}
		if got := or.stale.Load(); got != wantStale {
			t.Errorf("lag %d: oracle counted %d stale reads of 10, want %d", lag, got, wantStale)
		}
		if int64(good) != 10-wantStale {
			t.Errorf("lag %d: %d reads passed, want %d", lag, good, 10-wantStale)
		}
		if or.corrupt.Load() != 0 {
			t.Errorf("lag %d: intact payloads counted corrupt", lag)
		}
	}
}

func TestOracleAllowsAReadIssuedBeforeTheAck(t *testing.T) {
	// The floor is taken when the read is issued: a write acknowledged
	// while the read is in flight does not make an older value stale.
	pl, or := newPayloads(1), newOracle(1)
	or.ack(0, 4)
	floor := or.floor(0)
	or.ack(0, 5)
	if !or.check(0, floor, pl.make(0, 4)) {
		t.Error("a read issued at floor 4 that returned seq 4 was rejected")
	}
	if or.check(0, or.floor(0), pl.make(0, 4)) {
		t.Error("a read issued at floor 5 that returned seq 4 passed")
	}
}

func TestOracleCatchesCorruption(t *testing.T) {
	pl, or := newPayloads(7), newOracle(2)
	flipped := pl.make(1, 3)
	flipped[500] ^= 1
	wrongSeed := newPayloads(8).make(1, 3) // other filler, valid checksum
	cases := map[string][]byte{
		"flipped bit":      flipped,
		"truncated":        pl.make(1, 3)[:100],
		"other file's":     pl.make(0, 3),
		"header rewritten": func() []byte { b := pl.make(1, 3); b[4] = 9; return b }(),
	}
	for name, got := range cases {
		before := or.corrupt.Load()
		if or.check(1, 0, got) || or.corrupt.Load() != before+1 {
			t.Errorf("%s payload passed the oracle", name)
		}
	}
	if !or.check(1, 0, wrongSeed) {
		t.Error("a payload with a valid checksum was rejected")
	}
	if or.ack(1, 9); or.floor(1) != 9 {
		t.Errorf("floor %d after ack 9", or.floor(1))
	}
	if or.ack(1, 3); or.floor(1) != 9 {
		t.Errorf("floor fell to %d after a late ack of 3", or.floor(1))
	}
}
