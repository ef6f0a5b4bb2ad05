// The sharded deployment and its shard-split scenario: two replica
// groups of three replicas each behind one consistent-hash ring, driven
// by ring-routed clients (client.Router) while cross-shard renames move
// a file back and forth between the groups and the source group's
// master crash-stops mid-workload. The acked-floor lens holds on files
// homed on BOTH shards, a deliberately stale routing table must
// converge through NOT_OWNER redirects, and the cross-shard rename's
// wire paths must all fire.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"leases/internal/client"
	"leases/internal/clock"
	"leases/internal/faultnet"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// shardGroups is the group count of the sharded deployment: two is the
// smallest ring where cross-shard renames and NOT_OWNER steering exist
// at all.
const shardGroups = 2

// staticPerGroup is how many floor-checked workload files each group
// must own.
const staticPerGroup = 2

// shardedSet is a two-group sharded deployment: one replSet per group,
// every server gating ownership on the shared ring.
type shardedSet struct {
	h *harness
	// ring is the true routing table (epoch 2): each group's ID mapped
	// to its real client addresses.
	ring *shard.Ring
	// staleRing is the laggard's table: one epoch older and with the
	// two groups' addresses swapped, so every lookup computes the right
	// group ID but dials the wrong servers — the worst-case stale table
	// NOT_OWNER steering must converge.
	staleRing *shard.Ring
	groups    []*replSet
	// lns are the reserved client listeners, nilled as replicas consume
	// them; close() releases any left over from a failed boot.
	lns [][]net.Listener

	// static are the floor-checked workload files, staticPerGroup per
	// group in group order; their checker slots are their indices.
	static []string
	// moverIdx is the mover file's checker slot. The mover file is one
	// identity under a changing name: every cycle writes it, renames it
	// to a fresh name on the OTHER group, and reads it back at its new
	// home against the floor.
	moverIdx int

	renames    atomic.Int64 // cross-shard renames acked to the mover
	renameErrs atomic.Int64
	recreated  atomic.Int64 // mover identities recreated after a lost move (see moverLoop)
	reconnects atomic.Int64 // summed from the routers' group sessions
}

// newShardedSet reserves every client address up front, builds the true
// and stale rings over them, repoints the harness checker at the
// sharded workload files, and boots both groups.
func newShardedSet(h *harness, dir string) (*shardedSet, error) {
	// Reserve every client address with an OPEN listener — held until
	// its replica boots — so no other process can claim a port between
	// the ring naming it and the server binding it.
	addrs := make([][]string, shardGroups)
	lns := make([][]net.Listener, shardGroups)
	for g := range addrs {
		addrs[g] = make([]string, replicas)
		lns[g] = make([]net.Listener, replicas)
		for i := range addrs[g] {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeListeners(lns)
				return nil, err
			}
			lns[g][i] = ln
			addrs[g][i] = ln.Addr().String()
		}
	}
	groups := make([]shard.Group, shardGroups)
	swapped := make([]shard.Group, shardGroups)
	for g := 0; g < shardGroups; g++ {
		groups[g] = shard.Group{ID: g, Replicas: addrs[g]}
		swapped[g] = shard.Group{ID: g, Replicas: addrs[(g+1)%shardGroups]}
	}
	ring, err := shard.New(2, groups, 0)
	if err != nil {
		closeListeners(lns)
		return nil, err
	}
	staleRing, err := shard.New(1, swapped, 0)
	if err != nil {
		closeListeners(lns)
		return nil, err
	}
	ss := &shardedSet{h: h, ring: ring, staleRing: staleRing, lns: lns}
	ss.static = pickShardFiles(ring)
	// The checker gets the sharded workload files — the per-group
	// statics plus the mover's starting name — replacing the standalone
	// workload's files before any replica seeds from it.
	ss.moverIdx = len(ss.static)
	h.ck = newChecker(append(append([]string(nil), ss.static...), "/mv-0"))
	for g := 0; g < shardGroups; g++ {
		rs, err := bootReplSet(h, dir, replSetConfig{
			group:    g,
			ring:     ring,
			cliAddrs: addrs[g],
			cliLns:   lns[g],
			// Distinct dice per group, and clear of the single-group
			// scenarios' seed ranges.
			seedBase: int64(g+1) * 4096,
		})
		if err != nil {
			ss.close()
			return nil, err
		}
		ss.groups = append(ss.groups, rs)
	}
	return ss, nil
}

// pickShardFiles probes candidate names until every group owns
// staticPerGroup of them. Ring lookups are a pure function of the group
// IDs, so the same names land on the same groups every run.
func pickShardFiles(ring *shard.Ring) []string {
	perGroup := make(map[int][]string)
	need := len(ring.GroupIDs()) * staticPerGroup
	have := 0
	for i := 0; have < need; i++ {
		name := fmt.Sprintf("/s%d", i)
		g := ring.Lookup(name)
		if len(perGroup[g]) < staticPerGroup {
			perGroup[g] = append(perGroup[g], name)
			have++
		}
	}
	var out []string
	for _, gid := range ring.GroupIDs() {
		out = append(out, perGroup[gid]...)
	}
	return out
}

func (ss *shardedSet) close() {
	for _, rs := range ss.groups {
		rs.close()
	}
	closeListeners(ss.lns)
}

// closeListeners releases reserved listeners a replica never consumed.
func closeListeners(lns [][]net.Listener) {
	for _, row := range lns {
		for _, ln := range row {
			if ln != nil {
				ln.Close()
			}
		}
	}
}

// router opens one ring-routed client over the given table.
func (ss *shardedSet) router(id string, n int64, ring *shard.Ring) (*client.Router, error) {
	return client.NewRouter(ring, ss.h.clientCfg(id, n))
}

// collectReconnects folds a router's per-group session metrics into the
// set's reconnect total before the router closes.
func (ss *shardedSet) collectReconnects(r *client.Router) {
	for _, gid := range ss.ring.GroupIDs() {
		if c, err := r.GroupCache(gid); err == nil {
			ss.reconnects.Add(c.Metrics().Reconnects)
		}
	}
}

// runShardSplit is the sharded tentpole scenario. Deployment: two
// groups × three replicas, every client a Router. Workload: a writer
// and two readers hammer floor-checked files homed on both shards
// (one reader starting from the swapped stale ring), while the mover
// carries one file back and forth across the shard boundary with
// cross-shard renames. Faults: group 0's elected master crash-stops a
// third of the way in — mid-rename, with group 0 the source shard of
// every other move — and rejoins as a follower at two thirds. Lenses:
// the acked floor on every file (both shards and the moving identity),
// rename commits actually happening, the stale router converging onto
// the true table via NOT_OWNER, a completed failover election, and
// every sharded wire path (not-owner, the move) firing.
func runShardSplit(h *harness) {
	ss := h.shard
	d := h.o.Duration

	writer, err := ss.router("shard-writer", 60, ss.ring)
	if err != nil {
		h.ck.violate("harness", "writer router: %v", err)
		return
	}
	readerFresh, err := ss.router("shard-reader-fresh", 61, ss.ring)
	if err != nil {
		h.ck.violate("harness", "fresh-ring router: %v", err)
		return
	}
	readerStale, err := ss.router("shard-reader-stale", 62, ss.staleRing)
	if err != nil {
		h.ck.violate("harness", "stale-ring router: %v", err)
		return
	}
	mover, err := ss.router("shard-mover", 63, ss.ring)
	if err != nil {
		h.ck.violate("harness", "mover router: %v", err)
		return
	}

	wstop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go ss.writerLoop(writer, wstop, &wg)
	go ss.readerLoop(readerFresh, 0, wstop, &wg)
	go ss.readerLoop(readerStale, 1, wstop, &wg)
	go ss.moverLoop(mover, wstop, &wg)

	var crashed atomic.Int64
	crashed.Store(-1)
	faultnet.NewSchedule(h.obs).
		At(d/3, "group0-master-crash", func() {
			m := ss.groups[0].waitMaster(5 * time.Second)
			if m < 0 {
				h.ck.violate("election", "group 0 never elected a master to crash")
				return
			}
			h.logf("chaos: crashing group 0 master %d", m)
			crashed.Store(int64(m))
			ss.groups[0].crash(m)
		}).
		At(2*d/3, "replica-restart", func() {
			if m := crashed.Load(); m >= 0 {
				h.logf("chaos: restarting group 0 replica %d as follower", m)
				ss.groups[0].restart(int(m))
			}
		}).
		At(d, "end", func() {}).
		Run(clock.Real{}, h.stop)
	h.settleReplicated()
	close(wstop)
	wg.Wait()

	for _, r := range []*client.Router{writer, readerFresh, readerStale, mover} {
		ss.collectReconnects(r)
		r.Close()
	}

	// Shard lenses, on top of the standard floor and delay checks.
	if ss.renames.Load() == 0 {
		h.ck.violate("shard-rename", "no cross-shard rename was ever acknowledged (%d errors, %d lost moves recreated)",
			ss.renameErrs.Load(), ss.recreated.Load())
	}
	if n := readerStale.Redirects(); n == 0 {
		h.ck.violate("shard-routing", "the stale-ring reader was never redirected — NOT_OWNER steering did not fire")
	}
	if e := readerStale.Ring().Epoch; e != ss.ring.Epoch {
		h.ck.violate("shard-routing", "the stale router never converged onto the true ring (epoch %d, want %d)", e, ss.ring.Epoch)
	}
	if crashed.Load() >= 0 && ss.groups[0].waitMaster(5*time.Second) < 0 {
		h.ck.violate("election", "group 0 has no master after the crash — the survivors never failed over")
	}
	// Two initial elections (one per group) plus group 0's failover.
	if n := electedCount(h.obs); n < 3 {
		h.ck.violate("election", "no failover election recorded across the groups (elected events: %d)", n)
	}
	counts := map[string]int64{}
	for _, ec := range h.obs.EventCounts() {
		counts[ec.Type] = ec.N
	}
	for _, ev := range []string{"not-owner", "shard-move"} {
		if counts[ev] == 0 {
			h.ck.violate("shard-activity", "no %s event in a sharded run — that wire path never fired", ev)
		}
	}
}

// writerLoop mirrors the standalone writer over the sharded statics:
// each file's writes route to its owning group, and every
// acknowledgement advances that file's floor.
func (ss *shardedSet) writerLoop(r *client.Router, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	h := ss.h
	seqs := make([]uint64, len(ss.static))
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		fi := i % len(ss.static)
		seqs[fi]++
		start := time.Now()
		if err := r.Write(ss.static[fi], payload(ss.static[fi], seqs[fi])); err != nil {
			h.ck.writeErrs.Add(1)
		} else {
			h.ck.acked(fi, seqs[fi], time.Since(start))
		}
		if !pause(stop, 5*time.Millisecond) {
			return
		}
	}
}

// readerLoop cycles one router over every static file, snapshotting the
// floor before each read. The stale-ring reader runs the same loop —
// its first touch of each group misroutes and must converge.
func (ss *shardedSet) readerLoop(r *client.Router, idx int, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	h := ss.h
	for i := idx; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		fi := i % len(ss.static)
		floor := h.ck.floors.Floor(fi)
		data, err := r.Read(ss.static[fi])
		wait := 2 * time.Millisecond
		if err != nil {
			h.ck.readErrs.Add(1)
			wait = 25 * time.Millisecond
		} else {
			h.ck.observeRead(fi, data, floor)
		}
		if !pause(stop, wait) {
			return
		}
	}
}

// moverLoop carries one file identity across the shard boundary, over
// and over: write it at its current name (advancing its floor on the
// ack), rename it to a fresh name owned by the OTHER group, then read
// it back at its new home against the floor snapshotted before the
// read — the §2 guarantee stretched over an ownership transfer.
//
// Names are never reused: a crashed source master's store resurrects on
// its successor (file bodies replicate; namespace removals are
// master-only, DESIGN.md §9), so renaming back onto an old name could
// collide with a resurrected copy. Fresh names sidestep that — the
// op log of ROADMAP item 1 owns the real fix.
//
// A failed rename leaves the file in one of three places: still at its
// old name (never cleared, or the move refused and undone), at the new
// one (moved, ack lost — or a move still clearing the destination's
// directory), or nowhere (the source removed it and lost the connection
// with the move sent — the window crossShardRename documents — or its
// undo of a refused move failed). The loop
// probes both names and, if neither answers, recreates the identity
// under a fresh name: the floor only ever advanced on acknowledged
// writes, so the recreation continues the same monotonic history. A
// recreated file is empty until the next cycle writes it, so that cycle
// reads nothing back.
func (ss *shardedSet) moverLoop(r *client.Router, stop chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	h := ss.h
	name := h.ck.files[ss.moverIdx] // "/mv-0", pre-seeded at seq 0
	next := 1                       // fresh-name counter
	var seq uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		seq++
		start := time.Now()
		if err := r.Write(name, payload(name, seq)); err != nil {
			h.ck.writeErrs.Add(1)
			if !pause(stop, 25*time.Millisecond) {
				return
			}
			continue
		}
		h.ck.acked(ss.moverIdx, seq, time.Since(start))

		target := ss.otherGroup(ss.ring.Lookup(name))
		newName := ss.freshName(target, &next)
		recreated := false
		if err := r.Rename(name, newName); err != nil {
			ss.renameErrs.Add(1)
			name, recreated = ss.recoverMove(r, name, newName, target, &next, stop)
			if name == "" {
				return
			}
		} else {
			ss.renames.Add(1)
			name = newName
		}

		if !recreated {
			floor := h.ck.floors.Floor(ss.moverIdx)
			if data, err := r.Read(name); err != nil {
				h.ck.readErrs.Add(1)
			} else {
				h.ck.observeRead(ss.moverIdx, data, floor)
			}
		}
		if !pause(stop, 20*time.Millisecond) {
			return
		}
	}
}

// recoverMove locates the mover file after a failed rename, returning
// its current name ("" if the loop should stop) and whether it was just
// recreated, empty. Probes run oldest possibility last: a
// moved-but-unacked rename leaves the file at newName, a refused one at
// oldName; when neither answers after a few rounds the move was lost in
// flight and the identity is recreated under a fresh name.
func (ss *shardedSet) recoverMove(r *client.Router, oldName, newName string, target int, next *int, stop chan struct{}) (string, bool) {
	h := ss.h
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := r.Read(newName); err == nil {
			return newName, false
		}
		if _, err := r.Read(oldName); err == nil {
			return oldName, false
		}
		if !pause(stop, 150*time.Millisecond) {
			return "", false
		}
	}
	fresh := ss.freshName(target, next)
	if _, err := r.Create(fresh, vfs.DefaultPerm|vfs.WorldWrite); err != nil {
		h.logf("chaos: mover recreate %s: %v", fresh, err)
		return oldName, false // keep probing the old name next cycle
	}
	ss.recreated.Add(1)
	h.logf("chaos: mover identity recreated as %s", fresh)
	return fresh, true
}

// otherGroup picks the group that is not g on the two-group ring.
func (ss *shardedSet) otherGroup(g int) int {
	for _, gid := range ss.ring.GroupIDs() {
		if gid != g {
			return gid
		}
	}
	return g
}

// freshName returns the next never-used "/mv-N" name owned by target.
func (ss *shardedSet) freshName(target int, next *int) string {
	for {
		name := fmt.Sprintf("/mv-%d", *next)
		*next++
		if ss.ring.Lookup(name) == target {
			return name
		}
	}
}

// pause sleeps d unless stop closes first, reporting whether to keep
// running.
func pause(stop chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
