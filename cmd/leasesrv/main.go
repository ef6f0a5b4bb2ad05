// Command leasesrv runs the networked lease file server.
//
// Usage:
//
//	leasesrv -addr :7025 -term 10s
//	leasesrv -addr :7025 -term 10s -maxterm-file /var/lib/leases/maxterm
//	leasesrv -addr :7025 -term 10s -recovery 10s   # manual crash recovery
//	leasesrv -addr :7025 -metrics-addr :9100       # HTTP admin/metrics plane
//	leasesrv -addr :7025 -term 10s -installed-dirs /bin,/lib
//
// Crash safety: with -maxterm-file the server persists the maximum
// granted lease term (atomic temp+rename, fsync'd, updated only when
// the maximum grows) and a restart automatically observes the §2
// recovery window for the persisted value — no operator-supplied
// -recovery needed. -snapshot persists the detailed lease records
// (atomically) at shutdown and, with -snapshot-interval, periodically,
// so a crash loses at most one interval of records.
//
// The store starts with a small demonstration tree (/bin/latex,
// /docs/README) unless -empty is given. Writes are deferred until every
// conflicting leaseholder approves or its lease expires; -write-timeout
// bounds how long a writer may be held up before the server fails the
// write back.
//
// Observability: the server always records protocol trace events
// (grant, extend, approval round-trips, deferral, expiry release,
// timeout, eviction) into a bounded ring, plus per-op latency
// histograms. With -metrics-addr the admin plane serves /metrics
// (Prometheus text format), /healthz, /leases (JSON lease table) and
// /debug/pprof/. Without it, SIGUSR1 dumps the metrics snapshot and the
// most recent trace events to stderr; the same dump runs at shutdown.
// -trace-out mirrors every event to a JSONL file, and writes deferred
// longer than -slow-write are logged as they complete.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"leases/internal/cluster"
	"leases/internal/core"
	"leases/internal/obs"
	"leases/internal/obs/tracing"
	"leases/internal/replica"
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7025", "listen address")
	term := flag.Duration("term", 10*time.Second, "lease term t_s of a fresh grant; a reused lease no other client's write has recalled within 4 terms renews for 4 (0 = check-on-use)")
	recovery := flag.Duration("recovery", 0, "recovery window after restart (the persisted maximum granted term)")
	writeTimeout := flag.Duration("write-timeout", time.Minute, "bound on write deferral (0 = unbounded)")
	empty := flag.Bool("empty", false, "start with an empty store")
	snapshot := flag.String("snapshot", "", "lease snapshot file: loaded at startup, saved on SIGINT/SIGTERM (the §2 detailed-record recovery alternative)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "also save the lease snapshot at this period, so a crash loses at most one interval (0 = shutdown only)")
	maxTermFile := flag.String("maxterm-file", "", "durable max-term file: persisted before any grant raises the maximum; a restart automatically observes the §2 recovery window for the stored value (-recovery overrides)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP admin/metrics listen address (/metrics, /healthz, /leases, /debug/pprof); empty disables")
	traceRing := flag.Int("trace-ring", 4096, "protocol trace event ring size")
	traceOut := flag.String("trace-out", "", "mirror trace events to this JSONL file")
	slowWrite := flag.Duration("slow-write", time.Second, "log writes deferred at least this long (0 disables)")
	dumpEvents := flag.Int("dump-events", 32, "trace events included in the SIGUSR1/shutdown dump")
	replicaID := flag.Int("replica-id", -1, "this replica's index into -peers; >= 0 enables the replicated lease service")
	peersFlag := flag.String("peers", "", "comma-separated peer-mesh addresses in replica-ID order — identical on every replica (and, index-wise, every client's replica list)")
	electionTerm := flag.Duration("election-term", 0, "master-lease term for the PaxosLease election (0 = the lease term)")
	allowance := flag.Duration("allowance", 0, "clock-uncertainty margin ε for the master lease (0 = term/10)")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling probability for locally rooted traces (elections/failovers); client-sampled requests are always recorded; negative disables the tracing subsystem entirely")
	installedDirs := flag.String("installed-dirs", "", "comma-separated directory prefixes whose files join the installed-files lease class on first read (§4.3); empty disables the class")
	installedTerm := flag.Duration("installed-term", 0, "term each class broadcast extension grants (0 = 30s)")
	broadcastEvery := flag.Duration("broadcast-every", 0, "class broadcast-extension period (0 = installed-term/4)")
	quietAfterWrite := flag.Duration("quiet-after-write", 0, "post-write holdoff before a file is eligible for class (re-)promotion (0 = installed-term)")
	ringSpec := flag.String("ring", "", "sharded deployment ring spec \"[epoch@]id[*weight]=addr[,addr...];...\" — identical on every server and -ring client; empty disables sharding")
	groupID := flag.Int("group-id", -1, "this server's replica-group ID in the -ring spec (required with -ring)")
	flag.Parse()

	ocfg := obs.Config{RingSize: *traceRing, SlowWrite: *slowWrite}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("leasesrv: opening trace sink: %v", err)
		}
		defer f.Close()
		ocfg.Sink = f
	}
	o := obs.New(ocfg)

	// The tracer assembles causal spans: requests sampled at a client
	// propagate their context on the wire and always record here;
	// SampleRate only gates what this process roots itself (election
	// traces). Negative -trace-sample leaves tr nil — the zero-cost
	// disabled state.
	var tr *tracing.Tracer
	if *traceSample >= 0 {
		node := "server"
		if *replicaID >= 0 {
			node = fmt.Sprintf("s%d", *replicaID)
		}
		tr = tracing.New(tracing.Config{Node: node, SampleRate: *traceSample, Seed: int64(*replicaID) + 1})
	}

	// Replicated mode: a PaxosLease node negotiates the master lease on
	// the peer mesh; the server only accepts sessions (and clears
	// writes) while this replica holds it (internal/cluster wires the
	// two).
	var ncfg replica.NodeConfig
	if *replicaID >= 0 {
		peers := splitPeers(*peersFlag)
		if *replicaID >= len(peers) {
			log.Fatalf("leasesrv: -replica-id %d out of range for %d peers", *replicaID, len(peers))
		}
		et := *electionTerm
		if et <= 0 {
			et = *term
		}
		if et <= 0 {
			et = 10 * time.Second
		}
		al := *allowance
		if al <= 0 {
			al = et / 10
		}
		ncfg = replica.NodeConfig{
			ID: *replicaID, Peers: peers, Term: et, Allowance: al,
			Seed: int64(*replicaID) + 1, Obs: o, Tracer: tr,
		}
	}
	scfg := server.Config{
		Term:           *term,
		RecoveryWindow: *recovery,
		WriteTimeout:   *writeTimeout,
		MaxTermPath:    *maxTermFile,
		Obs:            o,
		Tracer:         tr,
		Class: server.ClassConfig{
			InstalledDirs:   splitDirs(*installedDirs),
			InstalledTerm:   *installedTerm,
			BroadcastEvery:  *broadcastEvery,
			QuietAfterWrite: *quietAfterWrite,
		},
	}
	if *ringSpec != "" {
		ring, err := shard.Parse(*ringSpec)
		if err != nil {
			log.Fatalf("leasesrv: -ring: %v", err)
		}
		if _, ok := ring.Group(*groupID); !ok {
			log.Fatalf("leasesrv: -group-id %d not in -ring spec", *groupID)
		}
		scfg.Shard = server.ShardConfig{GroupID: *groupID, Ring: ring}
		log.Printf("leasesrv: sharded: group %d of %d, ring epoch %d", *groupID, len(ring.GroupIDs()), ring.Epoch)
	} else if *groupID >= 0 {
		log.Fatal("leasesrv: -group-id requires -ring")
	}
	var nd *replica.Node
	var srv *server.Server
	if *replicaID >= 0 {
		var err error
		if nd, srv, err = cluster.New(ncfg, scfg, func(format string, args ...any) {
			log.Printf("leasesrv: "+format, args...)
		}); err != nil {
			log.Fatalf("leasesrv: %v", err)
		}
	} else {
		srv = server.New(scfg)
	}
	if !*empty {
		seed(srv.Store())
	}
	if nd != nil {
		if err := nd.Start(); err != nil {
			log.Fatalf("leasesrv: starting replica node: %v", err)
		}
		defer nd.Stop()
		log.Printf("leasesrv: replica %d of %d, peer mesh on %s", *replicaID, len(splitPeers(*peersFlag)), nd.Addr())
	}
	if *snapshot != "" {
		if records, err := loadSnapshot(*snapshot); err != nil {
			log.Fatalf("leasesrv: loading snapshot: %v", err)
		} else if records != nil {
			srv.Restore(records)
			log.Printf("leasesrv: restored %d lease records from %s", len(records), *snapshot)
		}
	}
	if *metricsAddr != "" {
		go func() {
			log.Printf("leasesrv: admin/metrics plane on http://%s (/metrics /healthz /leases /debug/pprof/)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, srv.AdminHandler()); err != nil {
				log.Fatalf("leasesrv: metrics listener: %v", err)
			}
		}()
	}
	if *snapshot != "" && *snapshotInterval > 0 {
		go func() {
			t := time.NewTicker(*snapshotInterval)
			defer t.Stop()
			for range t.C {
				if err := saveSnapshot(srv, *snapshot); err != nil {
					log.Printf("leasesrv: periodic snapshot: %v", err)
				}
			}
		}()
	}
	go handleSignals(srv, o, *snapshot, *dumpEvents)
	window := *recovery
	if window == 0 && *maxTermFile != "" {
		if d, found, err := server.LoadMaxTerm(*maxTermFile); err == nil && found {
			window = d // ListenAndServe rejects a corrupt file below
		}
	}
	log.Printf("leasesrv: serving on %s, term=%v recovery=%v", *addr, *term, window)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("leasesrv: %v", err)
	}
}

// splitDirs parses the -installed-dirs list, trimming whitespace; an
// empty flag yields nil (class disabled).
func splitDirs(s string) []string {
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			out = append(out, d)
		}
	}
	return out
}

// splitPeers parses the -peers list, trimming whitespace.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		log.Fatal("leasesrv: -replica-id set but -peers is empty")
	}
	return out
}

// handleSignals gives operators state without the HTTP plane: SIGUSR1
// dumps the metrics snapshot and recent trace events to stderr and the
// server keeps running; SIGINT/SIGTERM dump the same, persist the lease
// snapshot when configured, and exit.
func handleSignals(srv *server.Server, o *obs.Observer, snapshotPath string, dumpEvents int) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for sig := range ch {
		dump(srv, o, dumpEvents)
		if sig == syscall.SIGUSR1 {
			continue
		}
		if snapshotPath != "" {
			if err := saveSnapshot(srv, snapshotPath); err != nil {
				log.Printf("leasesrv: saving snapshot: %v", err)
				os.Exit(1)
			}
		}
		srv.Stop()
		os.Exit(0)
	}
}

func dump(srv *server.Server, o *obs.Observer, n int) {
	snap := srv.MetricsSnapshot()
	obs.DumpText(os.Stderr, &snap, o.Events(n))
}

func loadSnapshot(path string) ([]core.LeaseSnapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // first boot
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadSnapshot(f)
}

// saveSnapshot persists the lease table atomically: temp file, fsync,
// rename. A crash mid-save leaves the previous snapshot intact instead
// of a torn file, which matters now that saves also run on a periodic
// ticker rather than only at clean shutdown.
func saveSnapshot(srv *server.Server, path string) error {
	records := srv.Snapshot()
	f, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := core.WriteSnapshot(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	log.Printf("leasesrv: saved %d lease records to %s", len(records), path)
	return nil
}

func seed(st *vfs.Store) {
	mk := func(err error) {
		if err != nil {
			log.Fatalf("leasesrv: seeding store: %v", err)
		}
	}
	_, err := st.Mkdir("/bin", "root", vfs.DefaultPerm)
	mk(err)
	a, err := st.Create("/bin/latex", "root", vfs.DefaultPerm)
	mk(err)
	_, _, err = st.WriteFile(a.ID, []byte("#! the latex binary (demonstration)\n"))
	mk(err)
	_, err = st.Mkdir("/docs", "root", vfs.DefaultPerm|vfs.WorldWrite)
	mk(err)
	b, err := st.Create("/docs/README", "root", vfs.DefaultPerm|vfs.WorldWrite)
	mk(err)
	_, _, err = st.WriteFile(b.ID, []byte("welcome to the lease file service\n"))
	mk(err)
}
