package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
)

// payloadSize is the size of every file the benchmark seeds, writes
// and reads.
const payloadSize = 1024

// Payload layout: file identity, write sequence, checksum, filler.
//
//	[0:4)    file   uint32, little endian
//	[4:12)   seq    uint64
//	[12:16)  crc32c of bytes [0:12) and [16:payloadSize)
//	[16:…)   filler, fixed per run
const payloadHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloads stamps and checks file contents for one run. The filler is
// drawn once from the run's seed, so a payload depends on (seed, file,
// seq) only.
type payloads struct {
	filler []byte
}

func newPayloads(seed int64) *payloads {
	p := &payloads{filler: make([]byte, payloadSize-payloadHeader)}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p.filler)
	return p
}

// fill writes the payload of (file, seq) into buf, which must be
// payloadSize long.
func (p *payloads) fill(buf []byte, file int, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(file))
	binary.LittleEndian.PutUint64(buf[4:], seq)
	copy(buf[payloadHeader:], p.filler)
	binary.LittleEndian.PutUint32(buf[12:], checksum(buf))
}

func (p *payloads) make(file int, seq uint64) []byte {
	buf := make([]byte, payloadSize)
	p.fill(buf, file, seq)
	return buf
}

func checksum(buf []byte) uint32 {
	sum := crc32.Update(0, castagnoli, buf[:12])
	return crc32.Update(sum, castagnoli, buf[payloadHeader:])
}

// parse returns the identity and sequence a payload carries; ok is
// false when its size or checksum is wrong.
func parsePayload(buf []byte) (file int, seq uint64, ok bool) {
	if len(buf) != payloadSize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(buf[12:]) != checksum(buf) {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(buf[0:])), binary.LittleEndian.Uint64(buf[4:]), true
}

// oracle checks the paper's §2 guarantee from outside: a read returns
// nothing older than the newest write acknowledged before the read was
// issued. Writers report each acknowledged sequence; a reader takes the
// file's floor before it issues the read and checks what comes back
// against it.
type oracle struct {
	acked   []atomic.Uint64 // per file: highest acknowledged seq
	stale   atomic.Int64    // reads that returned seq < floor
	corrupt atomic.Int64    // reads with a bad checksum, size or identity
}

func newOracle(files int) *oracle {
	return &oracle{acked: make([]atomic.Uint64, files)}
}

// floor is the lowest sequence a read of file issued now may return.
func (o *oracle) floor(file int) uint64 { return o.acked[file].Load() }

// ack records that the write of seq to file was acknowledged.
func (o *oracle) ack(file int, seq uint64) {
	a := &o.acked[file]
	for {
		cur := a.Load()
		if seq <= cur || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// check judges what a read of file returned against the floor taken
// before the read was issued, counts a violation, and reports whether
// the read was good.
func (o *oracle) check(file int, floor uint64, got []byte) bool {
	gotFile, seq, ok := parsePayload(got)
	if !ok || gotFile != file {
		o.corrupt.Add(1)
		return false
	}
	if seq < floor {
		o.stale.Add(1)
		return false
	}
	return true
}
