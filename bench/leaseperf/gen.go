package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"leases/internal/shard"
	"leases/internal/vfs"
)

// Everything in this file is a pure function of the seed: the file
// sets, the op streams and their timestamps. The servers see only the
// ops these generators produce.

// fileSet is the files one workload seeds: a path per file identity,
// and the directories that hold them, parents first.
type fileSet struct {
	dirs  []string
	paths []string
}

// add appends n files named prefix<i> and returns the identity of the
// first.
func (fs *fileSet) add(prefix string, n int) (first int) {
	first = len(fs.paths)
	for i := 0; i < n; i++ {
		fs.paths = append(fs.paths, fmt.Sprintf("%s%d", prefix, i))
	}
	return first
}

// filePerm lets every client read and write every seeded file: the
// benchmark measures leases, not permissions.
const filePerm = vfs.DefaultPerm | vfs.WorldWrite

// seeder returns the topo.Config.Files callback for this set: every
// directory on every server, every file at sequence 0 on its owner.
func (fs *fileSet) seeder(pl *payloads) func(*vfs.Store, int, *shard.Ring) error {
	return func(st *vfs.Store, group int, ring *shard.Ring) error {
		for _, d := range fs.dirs {
			if _, err := st.Mkdir(d, "root", filePerm); err != nil {
				return err
			}
		}
		buf := make([]byte, payloadSize)
		for id, p := range fs.paths {
			if ring != nil && ring.Lookup(p) != group {
				continue
			}
			pl.fill(buf, id, 0)
			if _, err := st.CreateWith(p, "root", filePerm, buf); err != nil {
				return err
			}
		}
		return nil
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1):
// the exponent-1 law math/rand's Zipf cannot produce.
type zipf struct {
	cdf []float64
}

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// connRand is the private random stream of one connection's generator.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
}

// opKind is what a generated op does.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one generated operation: its kind, the identity of the file it
// touches, the class its latency is filed under, and — in an open loop
// — the offset from the stream's start at which it is due.
type op struct {
	kind  opKind
	class opClass
	file  int
	due   time.Duration
}

// vmixFiles are v_mix's file identities.
type vmixFiles struct {
	fileSet
	inst, sh  int    // first identities
	pv        [2]int // first identity of each connection's private files
	nInst     int
	nSh, nPv  int
	zInst, zP *zipf
}

const (
	vmixInst = 64
	// vmixClassMembers is the installed class once every /inst file has
	// been read: the files, and the binding of /inst itself, which the
	// lookups install.
	vmixClassMembers = vmixInst + 1
	vmixSh           = 32
	vmixPv           = 256
	// vmixRate is each connection's Poisson arrival rate, ops/s.
	vmixRate = 1000
)

func newVmixFiles() *vmixFiles {
	f := &vmixFiles{nInst: vmixInst, nSh: vmixSh, nPv: vmixPv}
	f.dirs = []string{"/inst", "/sh", "/pv0", "/pv1"}
	f.inst = f.add("/inst/f", vmixInst)
	f.sh = f.add("/sh/f", vmixSh)
	f.pv[0] = f.add("/pv0/f", vmixPv)
	f.pv[1] = f.add("/pv1/f", vmixPv)
	f.zInst, f.zP = newZipf(vmixInst), newZipf(vmixPv)
	return f
}

// stream generates one connection's open-loop ops for dur: Poisson
// arrivals at vmixRate; 45% reads of installed files (Zipf 1), 50.6%
// reads and 4.4% writes — V's read:write ratio of 0.864:0.04 — each
// split evenly between the shared files and this connection's private
// files (Zipf 1). A shared file is written only by the connection its
// index is congruent to, so every file has one writer.
func (f *vmixFiles) stream(seed int64, conn int, dur time.Duration) []op {
	r := connRand(seed, conn)
	var ops []op
	var at time.Duration
	for {
		at += time.Duration(r.ExpFloat64() / vmixRate * float64(time.Second))
		if at >= dur {
			return ops
		}
		o := op{due: at}
		u := r.Float64()
		switch {
		case u < 0.45:
			o.kind, o.file = opRead, f.inst+f.zInst.draw(r)
		case u < 0.45+0.506:
			o.kind = opRead
			if r.Intn(2) == 0 {
				o.file = f.sh + r.Intn(f.nSh)
			} else {
				o.file = f.pv[conn] + f.zP.draw(r)
			}
		default:
			o.kind = opWrite
			if r.Intn(2) == 0 {
				o.class = clsSharedWrite
				o.file = f.sh + 2*r.Intn(f.nSh/2) + conn
			} else {
				o.class = clsWrite
				o.file = f.pv[conn] + f.zP.draw(r)
			}
		}
		ops = append(ops, o)
	}
}

// satFiles are the file identities of the closed-loop workloads: a
// cold set read once per cycle, per-connection private files that are
// overwritten, per-connection files read at a slow pace, and names to
// rename between.
type satFiles struct {
	fileSet
	cold, nCold int
	w           [2]int
	nW          int
	r           [2]int
	nR          int
	mv          [2]int
	nMv         int
}

const (
	coldFiles   = 200_000
	coldDirs    = 200
	writeFiles  = 1024
	pacedFiles  = 512
	renameFiles = 128
)

// newSatFiles builds the set; zero counts leave a part out. cold is
// divided among coldDirs directories under /cold.
func newSatFiles(cold, w, r, mv int) *satFiles {
	f := &satFiles{nCold: cold, nW: w, nR: r, nMv: mv}
	if cold > 0 {
		f.dirs = append(f.dirs, "/cold")
		per := (cold + coldDirs - 1) / coldDirs
		f.cold = len(f.paths)
		for d := 0; d < coldDirs && len(f.paths)-f.cold < cold; d++ {
			dir := fmt.Sprintf("/cold/d%d", d)
			f.dirs = append(f.dirs, dir)
			n := per
			if rest := cold - (len(f.paths) - f.cold); n > rest {
				n = rest
			}
			f.add(dir+"/f", n)
		}
	}
	for c := 0; c < 2; c++ {
		if w > 0 {
			f.dirs = append(f.dirs, fmt.Sprintf("/w%d", c))
			f.w[c] = f.add(fmt.Sprintf("/w%d/f", c), w)
		}
		if r > 0 {
			f.dirs = append(f.dirs, fmt.Sprintf("/r%d", c))
			f.r[c] = f.add(fmt.Sprintf("/r%d/f", c), r)
		}
		if mv > 0 {
			f.dirs = append(f.dirs, fmt.Sprintf("/mv%d", c))
			f.mv[c] = f.add(fmt.Sprintf("/mv%d/a", c), mv)
		}
	}
	return f
}

// coldOrder is the order in which one connection reads its half of the
// cold set: a seeded permutation, walked cyclically.
func (f *satFiles) coldOrder(seed int64, conn int) []int {
	half := f.nCold / 2
	ids := make([]int, half)
	for i := range ids {
		ids[i] = f.cold + conn*half + i
	}
	connRand(seed, conn).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// renamePlan is one connection's rename targets: for each group of the
// ring, names under the connection's directory that hash to it and are
// free. A file moves to a free name of its own group (a local rename)
// or of the other group (a cross-shard rename), freeing the name it
// leaves.
type renamePlan struct {
	free  [2][]string // free names per group, used as a stack
	at    []string    // current name of each of the connection's files
	group []int       // current group of each
}

// newRenamePlan classifies candidate names with the ring until each
// group has as many free names as the connection has files.
func newRenamePlan(f *satFiles, conn int, ring *shard.Ring) *renamePlan {
	p := &renamePlan{}
	for i := 0; i < f.nMv; i++ {
		name := f.paths[f.mv[conn]+i]
		p.at = append(p.at, name)
		p.group = append(p.group, ring.Lookup(name))
	}
	for i := 0; len(p.free[0]) < f.nMv || len(p.free[1]) < f.nMv; i++ {
		name := fmt.Sprintf("/mv%d/n%d", conn, i)
		if g := ring.Lookup(name); len(p.free[g]) < f.nMv {
			p.free[g] = append(p.free[g], name)
		}
	}
	return p
}

// next plans the k-th rename of the connection: files round-robin,
// local and cross-shard alternating. It returns the file's index, its
// old and new name, and whether the rename crosses shards.
func (p *renamePlan) next(k int) (idx int, from, to string, cross bool) {
	idx = k % len(p.at)
	cross = k%2 == 1
	g := p.group[idx]
	dest := g
	if cross {
		dest = 1 - g
	}
	n := len(p.free[dest]) - 1
	from, to = p.at[idx], p.free[dest][n]
	p.free[dest] = p.free[dest][:n]
	p.free[g] = append(p.free[g], from)
	p.at[idx], p.group[idx] = to, dest
	return idx, from, to, cross
}
