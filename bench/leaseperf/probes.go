package main

import (
	"bytes"
	"io"
	"time"

	"leases/internal/client"
	"leases/internal/core"
	"leases/internal/obs/tracing"
	"leases/internal/proto"
	"leases/internal/vfs"
)

// probeTimes are the isolated costs of each layer's exported calls, in
// ns per call: the layer timed alone, single-threaded, replaying the
// files and sizes of the workload's own op stream. Zero means the
// workload never makes the call.
type probeTimes struct {
	hit                       float64 // Cache.Read under a valid lease
	encode, decode            float64 // per frame
	appendFrame               float64 // Coalescer.Append to io.Discard, per frame
	grant                     float64
	writeClear, writeApprove  float64 // per write
	holderValid               float64
	vfsLookup, vfsRead        float64
	vfsWrite, vfsRename       float64
	shardLookup               float64
	span, reject              float64 // sampled / unsampled root+child start–end
	framesProbed, opsReplayed int
}

// probeOps bounds how many of the workload's ops a probe replays.
const probeOps = 100_000

// timePer runs fn n times and returns ns per call.
func timePer(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// probeIDs is the plan's probeIDs for v_mix: probeOps ops of the stream.
func (f *vmixFiles) probeIDs(seed int64) (reads, writes []int) {
	for _, o := range f.stream(seed, 0, probeOps*time.Second/vmixRate) {
		if o.kind == opRead {
			reads = append(reads, o.file)
		} else {
			writes = append(writes, o.file)
		}
	}
	return reads, writes
}

// probeIDs is the plan's probeIDs for the closed loops: the cold order,
// or the paced files where there is no cold set, and the written files.
func (f *satFiles) probeIDs(seed int64) (reads, writes []int) {
	if f.nCold > 0 {
		reads = f.coldOrder(seed, 0)
	} else {
		for i := 0; i < f.nR; i++ {
			reads = append(reads, f.r[0]+i)
		}
	}
	if len(reads) > probeOps {
		reads = reads[:probeOps]
	}
	for i := 0; i < f.nW; i++ {
		writes = append(writes, f.w[0]+i)
	}
	return reads, writes
}

// frameFill is one frame of the workload's mix: its type and the
// encoder that appends its payload.
type frameFill struct {
	t    proto.MsgType
	fill func(*proto.Enc)
}

// framesOf lists the frames a miss read and a write of path put on the
// wire, requests and replies, with payloads of the real sizes.
func framesOf(path string, attr vfs.Attr, data []byte, write bool) []frameFill {
	grant := []proto.GrantWire{{Datum: vfs.Datum{Kind: vfs.FileData, Node: attr.ID}, Term: leaseTerm, Version: 1, Leased: true}}
	fs := []frameFill{
		{proto.TLookup, func(e *proto.Enc) { e.Str(path) }},
		{proto.TLookupRep, func(e *proto.Enc) { e.Attr(attr).U64(uint64(attr.ID)).EncodeGrants(grant) }},
	}
	if write {
		return append(fs,
			frameFill{proto.TWrite, func(e *proto.Enc) { e.U64(uint64(attr.ID)).Blob(data) }},
			frameFill{proto.TWriteRep, func(e *proto.Enc) { e.Attr(attr) }})
	}
	return append(fs,
		frameFill{proto.TRead, func(e *proto.Enc) { e.U64(uint64(attr.ID)) }},
		frameFill{proto.TReadRep, func(e *proto.Enc) { e.Attr(attr).EncodeGrants(grant).Blob(data) }})
}

// runProbes times every layer alone. It runs after the measured window
// and the read-back check, on the deployment the window ran on where a
// probe needs the seeded store or a live session.
func runProbes(e *env, rd *runData) probeTimes {
	var pt probeTimes
	reads, writes := rd.pl.probeIDs(rd.p.seed)
	paths := rd.pl.files.paths
	pt.opsReplayed = len(reads) + len(writes)
	store := e.topo.Servers[0].Store()
	if e.topo.Ring != nil && len(reads) > 0 {
		store = e.topo.Servers[e.topo.Ring.Lookup(paths[reads[0]])].Store()
	}
	data := e.pl.make(0, 1)

	// vfs: the store the workload ran on. On a sharded deployment only
	// the files this group owns exist; the others are skipped.
	owned := func(ids []int) (out []int) {
		for _, id := range ids {
			if _, err := store.Lookup(paths[id]); err == nil {
				out = append(out, id)
			}
		}
		return out
	}
	ownedReads, ownedWrites := owned(reads), owned(writes)
	attrs := make(map[int]vfs.Attr, len(ownedReads)+len(ownedWrites))
	pt.vfsLookup = timePer(len(ownedReads), func(i int) {
		a, _ := store.Lookup(paths[ownedReads[i]])
		attrs[ownedReads[i]] = a
	})
	for _, id := range ownedWrites {
		attrs[id], _ = store.Lookup(paths[id])
	}
	pt.vfsRead = timePer(len(ownedReads), func(i int) { store.ReadFile(attrs[ownedReads[i]].ID) })
	pt.vfsWrite = timePer(len(ownedWrites), func(i int) { store.WriteFile(attrs[ownedWrites[i]].ID, data) })
	pt.vfsRename = timePer(len(ownedWrites), func(i int) {
		p := paths[ownedWrites[i]]
		store.Rename(p, p+".probe")
		store.Rename(p+".probe", p)
	}) / 2

	// proto and coalescer: the frames of the same ops.
	var frames []frameFill
	for i, id := range ownedReads {
		if i == 2000 {
			break
		}
		frames = append(frames, framesOf(paths[id], attrs[id], data, false)...)
	}
	for i, id := range ownedWrites {
		if i == 2000 {
			break
		}
		frames = append(frames, framesOf(paths[id], attrs[id], data, true)...)
	}
	pt.framesProbed = len(frames)
	const rounds = 10
	var wire []byte
	var encNs float64
	for r := 0; r < rounds; r++ {
		wire = wire[:0]
		encNs += timePer(len(frames), func(i int) {
			start := len(wire)
			wire = proto.BeginFrame(wire, frames[i].t, uint64(i))
			enc := proto.EncOn(wire)
			frames[i].fill(&enc)
			wire = enc.Bytes()
			proto.FinishFrame(wire, start)
		})
	}
	pt.encode = encNs / rounds
	var decNs float64
	for r := 0; r < rounds; r++ {
		fr := proto.NewFrameReader(bytes.NewReader(wire))
		decNs += timePer(len(frames), func(int) {
			f, err := fr.Next()
			if err != nil {
				return
			}
			d := proto.NewDec(f.Payload)
			switch f.Type {
			case proto.TLookup:
				d.Str()
			case proto.TLookupRep:
				d.Attr()
				d.U64()
				d.DecodeGrants()
			case proto.TRead:
				d.U64()
			case proto.TReadRep:
				d.Attr()
				d.DecodeGrants()
				d.Blob()
			case proto.TWrite:
				d.U64()
				d.Blob()
			case proto.TWriteRep:
				d.Attr()
			}
			f.Recycle()
		})
	}
	pt.decode = decNs / rounds
	co := proto.NewCoalescer(io.Discard)
	var appNs float64
	for r := 0; r < rounds; r++ {
		appNs += timePer(len(frames), func(i int) { co.Append(frames[i].t, uint64(i), frames[i].fill) })
	}
	co.Close()
	pt.appendFrame = appNs / rounds

	// core: a fresh manager and holder, the window's files, timestamps
	// advancing at the window's own rate so leases expire as they did.
	var ops int64
	var span time.Duration
	for _, ph := range rd.phases {
		for _, n := range ph.end.done {
			ops += n
		}
		for _, n := range ph.start.done {
			ops -= n
		}
		span += ph.end.at.Sub(ph.start.at)
	}
	gap := time.Millisecond
	if ops > 0 {
		gap = span / time.Duration(ops)
	}
	base := time.Now()
	grants := core.NewShardedManager(core.DefaultShards, core.FixedTerm(leaseTerm))
	datum := func(id int) vfs.Datum { return vfs.Datum{Kind: vfs.FileData, Node: vfs.NodeID(id + 2)} }
	pt.grant = timePer(len(reads), func(i int) {
		grants.Grant("load0", datum(reads[i]), base.Add(time.Duration(i)*gap))
	})
	lm := core.NewShardedManager(core.DefaultShards, core.FixedTerm(leaseTerm))
	clear := func(writer core.ClientID, approver core.ClientID) func(int) {
		return func(i int) {
			d, now := datum(writes[i]), base
			disp := lm.SubmitWriteHeld(writer, d, now)
			if approver != "" {
				lm.Approve(approver, disp.WriteID, now)
			}
			lm.ReadyWritesShard(lm.ShardFor(d), now)
			lm.WriteApplied(disp.WriteID, now)
		}
	}
	pt.writeClear = timePer(len(writes), clear("load0", ""))
	for _, id := range writes {
		lm.Grant("load1", datum(id), base)
	}
	pt.writeApprove = timePer(len(writes), clear("load0", "load1"))
	h := core.NewHolder(core.HolderConfig{Allowance: allowance})
	for _, id := range reads {
		h.ApplyGrant(datum(id), 1, leaseTerm, base, base)
	}
	pt.holderValid = timePer(len(reads), func(i int) { h.Valid(datum(reads[i]), base) })

	if ring := e.topo.Ring; ring != nil {
		pt.shardLookup = timePer(len(reads), func(i int) { ring.Lookup(paths[reads[i]]) })
	}

	// tracing: a root and one child, started and ended, when the root is
	// sampled and when it is not.
	const spans = 20_000
	sampled := tracing.New(tracing.Config{SampleRate: 1, Completed: 64})
	pt.span = timePer(spans, func(int) {
		root := sampled.StartRoot("probe")
		sampled.StartChild(root.Context(), "probe.child").End()
		root.End()
	})
	rejected := tracing.New(tracing.Config{SampleRate: 0})
	pt.reject = timePer(spans, func(int) {
		root := rejected.StartRoot("probe")
		rejected.StartChild(root.Context(), "probe.child").End()
		root.End()
	})

	if len(ownedReads) > 0 {
		pt.hit = probeHit(e, paths[ownedReads[0]])
	}
	return pt
}

// probeHit times Cache.Read of path on connection 0 while its lease and
// every binding lease above it are valid, so neither the path
// resolution nor the read leaves the process.
func probeHit(e *env, path string) float64 {
	var cache *client.Cache
	if c := e.conns[0]; c.cache != nil {
		cache = c.cache
	} else if gc, err := c.router.GroupCache(e.topo.Ring.Lookup(path)); err == nil {
		cache = gc
	} else {
		return 0
	}
	// Looking up each prefix in turn leases every directory binding on
	// the way down, which the cached path walk needs.
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			cache.Lookup(path[:i])
		}
	}
	if _, err := cache.Read(path); err != nil {
		return 0
	}
	before := cache.Metrics()
	deadline := time.Now().Add(leaseTerm / 4)
	n := 0
	start := time.Now()
	for n < probeOps && time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			cache.Read(path)
		}
		n += 64
	}
	elapsed := time.Since(start)
	after := cache.Metrics()
	if hits := after.ReadHits - before.ReadHits; hits != int64(n) ||
		after.LookupHits-before.LookupHits != int64(n) {
		return 0 // some read left the process: not a hit timing
	}
	return float64(elapsed) / float64(n)
}
