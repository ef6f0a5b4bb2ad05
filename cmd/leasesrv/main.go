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
// Replication: -peers lists the replica set's peer-mesh addresses and
// -replica-id this process's place in it. The process boots as a
// cluster.Member: it negotiates the master lease on the peer mesh and,
// on every boot but its first (its -maxterm-file absent), catches up
// from a quorum before it serves.
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
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
	"leases/internal/server"
	"leases/internal/shard"
	"leases/internal/vfs"
)

// process is what only this process does with its member: where it
// listens, the demonstration tree, lease snapshots, the admin plane and
// the instrumentation it hands the member.
type process struct {
	addr, snapshot, metricsAddr, traceOut string
	snapshotInterval, slowWrite           time.Duration
	traceSample                           float64
	empty                                 bool
}

// parseFlags binds the command line into the member's configuration and
// the process's own settings. Obs, Tracer and Logf are main's to fill.
func parseFlags(args []string) (cluster.Config, process, error) {
	var cfg cluster.Config
	var p process
	s := &cfg.Server
	fl := flag.NewFlagSet("leasesrv", flag.ContinueOnError)
	fl.StringVar(&p.addr, "addr", "127.0.0.1:7025", "listen address")
	fl.DurationVar(&s.Term, "term", 10*time.Second, "lease term t_s of a fresh grant; a reused lease no other client's write has recalled within 4 terms renews for 4 (0 = check-on-use)")
	fl.DurationVar(&s.RecoveryWindow, "recovery", 0, "recovery window after restart (the persisted maximum granted term)")
	fl.DurationVar(&s.WriteTimeout, "write-timeout", time.Minute, "bound on write deferral (0 = unbounded)")
	fl.BoolVar(&p.empty, "empty", false, "start with an empty store")
	fl.StringVar(&p.snapshot, "snapshot", "", "lease snapshot file: loaded at startup, saved on SIGINT/SIGTERM (the §2 detailed-record recovery alternative)")
	fl.DurationVar(&p.snapshotInterval, "snapshot-interval", 0, "also save the lease snapshot at this period, so a crash loses at most one interval (0 = shutdown only)")
	fl.StringVar(&s.MaxTermPath, "maxterm-file", "", "durable max-term file: persisted before any grant raises the maximum; a restart automatically observes the §2 recovery window for the stored value (-recovery overrides)")
	fl.StringVar(&p.metricsAddr, "metrics-addr", "", "HTTP admin/metrics listen address (/metrics, /healthz, /leases, /debug/pprof); empty disables")
	fl.StringVar(&p.traceOut, "trace-out", "", "mirror trace events to this JSONL file")
	fl.DurationVar(&p.slowWrite, "slow-write", time.Second, "log writes deferred at least this long (0 disables)")
	fl.IntVar(&cfg.ID, "replica-id", -1, "this replica's index into -peers")
	fl.Func("peers", "comma-separated peer-mesh addresses in replica-ID order — identical on every replica (and, index-wise, every client's replica list); non-empty enables the replicated lease service", listFlag(&cfg.Peers))
	fl.DurationVar(&cfg.Allowance, "allowance", 0, "clock-uncertainty margin ε for the master lease, whose term is -term (0 = term/10)")
	fl.Float64Var(&p.traceSample, "trace-sample", 1, "head-sampling probability for locally rooted traces (elections/failovers); client-sampled requests are always recorded; negative disables the tracing subsystem entirely")
	fl.Func("installed-dirs", "comma-separated directory prefixes whose files join the installed-files lease class on first read (§4.3); empty disables the class", listFlag(&s.Class.InstalledDirs))
	fl.DurationVar(&s.Class.InstalledTerm, "installed-term", 0, "term each class broadcast extension grants (0 = 30s)")
	fl.DurationVar(&s.Class.BroadcastEvery, "broadcast-every", 0, "class broadcast-extension period (0 = installed-term/4)")
	fl.DurationVar(&s.Class.QuietAfterWrite, "quiet-after-write", 0, "post-write holdoff before a file is eligible for class (re-)promotion (0 = installed-term)")
	fl.Func("ring", "sharded deployment ring spec \"[epoch@]id[*weight]=addr[,addr...];...\" — identical on every server and -ring client; empty disables sharding", func(v string) (err error) {
		if v != "" {
			s.Shard.Ring, err = shard.Parse(v)
		}
		return err
	})
	fl.IntVar(&s.Shard.GroupID, "group-id", -1, "this server's replica-group ID in the -ring spec (required with -ring)")
	if err := fl.Parse(args); err != nil {
		return cfg, p, err
	}
	if cfg.ID >= 0 && len(cfg.Peers) == 0 {
		return cfg, p, errors.New("-replica-id set but -peers is empty")
	}
	if r, g := s.Shard.Ring, s.Shard.GroupID; r == nil && g >= 0 {
		return cfg, p, errors.New("-group-id requires -ring")
	} else if r != nil {
		if _, ok := r.Group(g); !ok {
			return cfg, p, fmt.Errorf("-group-id %d not in -ring spec", g)
		}
	}
	cfg.Seed = int64(cfg.ID) + 1
	return cfg, p, nil
}

func main() {
	cfg, p, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	} else if err != nil {
		log.Fatalf("leasesrv: %v", err)
	}
	ocfg := obs.Config{SlowWrite: p.slowWrite}
	if p.traceOut != "" {
		f, err := os.Create(p.traceOut)
		if err != nil {
			log.Fatalf("leasesrv: opening trace sink: %v", err)
		}
		defer f.Close()
		ocfg.Sink = f
	}
	cfg.Server.Obs = obs.New(ocfg)
	// The tracer assembles causal spans: requests sampled at a client
	// propagate their context on the wire and always record here;
	// SampleRate only gates what this process roots itself (election
	// traces). Negative -trace-sample leaves it nil — the zero-cost
	// disabled state.
	if p.traceSample >= 0 {
		node := "server"
		if len(cfg.Peers) > 0 {
			node = fmt.Sprintf("s%d", cfg.ID)
		}
		cfg.Server.Tracer = tracing.New(tracing.Config{Node: node, SampleRate: p.traceSample, Seed: cfg.Seed})
	}
	cfg.Logf = func(format string, args ...any) { log.Printf("leasesrv: "+format, args...) }
	persisted, _, _ := server.LoadMaxTerm(cfg.Server.MaxTermPath) // cluster.New reports a corrupt file
	window := cmp.Or(cfg.Server.RecoveryWindow, persisted)

	m, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("leasesrv: %v", err)
	}
	if !p.empty {
		if err := seed(m.Server.Store()); err != nil {
			log.Fatalf("leasesrv: seeding store: %v", err)
		}
	}
	if p.snapshot != "" {
		if records, err := loadSnapshot(p.snapshot); err != nil {
			log.Fatalf("leasesrv: loading snapshot: %v", err)
		} else if records != nil {
			m.Server.Restore(records)
			log.Printf("leasesrv: restored %d lease records from %s", len(records), p.snapshot)
		}
	}
	if r := cfg.Server.Shard.Ring; r != nil {
		log.Printf("leasesrv: sharded: group %d of %d, ring epoch %d", cfg.Server.Shard.GroupID, len(r.GroupIDs()), r.Epoch)
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		log.Fatalf("leasesrv: %v", err)
	}
	if err := m.Start(ln); err != nil {
		log.Fatalf("leasesrv: starting replica node: %v", err)
	}
	if m.Node != nil {
		log.Printf("leasesrv: replica %d of %d, peer mesh on %s", cfg.ID, len(cfg.Peers), m.Node.Addr())
	}
	if p.metricsAddr != "" {
		go func() {
			log.Printf("leasesrv: admin/metrics plane on http://%s (/metrics /healthz /leases /debug/pprof/)", p.metricsAddr)
			if err := http.ListenAndServe(p.metricsAddr, m.Server.AdminHandler()); err != nil {
				log.Fatalf("leasesrv: metrics listener: %v", err)
			}
		}()
	}
	if p.snapshot != "" && p.snapshotInterval > 0 {
		go func() {
			t := time.NewTicker(p.snapshotInterval)
			defer t.Stop()
			for range t.C {
				if err := saveSnapshot(m.Server, p.snapshot); err != nil {
					log.Printf("leasesrv: periodic snapshot: %v", err)
				}
			}
		}()
	}
	go func() {
		if err := m.Wait(); err != nil {
			log.Fatalf("leasesrv: %v", err)
		}
	}()
	log.Printf("leasesrv: serving on %s, term=%v recovery=%v", ln.Addr(), cfg.Server.Term, window)
	if err := handleSignals(m, cfg.Server.Obs, p.snapshot); err != nil {
		log.Fatalf("leasesrv: saving snapshot: %v", err)
	}
}

// listFlag binds a comma-separated flag to dst, trimming whitespace; an
// empty flag leaves nil.
func listFlag(dst *[]string) func(string) error {
	return func(v string) error {
		*dst = nil
		for _, e := range strings.Split(v, ",") {
			if e = strings.TrimSpace(e); e != "" {
				*dst = append(*dst, e)
			}
		}
		return nil
	}
}

// handleSignals gives operators state without the HTTP plane: SIGUSR1
// dumps the metrics snapshot and the 32 most recent trace events to
// stderr and the server keeps running; SIGINT/SIGTERM dump the same,
// persist the lease snapshot when configured, stop the member and
// return the save's error.
func handleSignals(m *cluster.Member, o *obs.Observer, snapshotPath string) error {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for sig := range ch {
		snap := m.Server.MetricsSnapshot()
		obs.DumpText(os.Stderr, &snap, o.Events(32))
		if sig == syscall.SIGUSR1 {
			continue
		}
		var err error
		if snapshotPath != "" {
			err = saveSnapshot(m.Server, snapshotPath)
		}
		m.Stop()
		return err
	}
	return nil
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

// seed writes the demonstration tree.
func seed(st *vfs.Store) error {
	ww := vfs.DefaultPerm | vfs.WorldWrite
	_, err1 := st.Mkdir("/bin", "root", vfs.DefaultPerm)
	_, err2 := st.CreateWith("/bin/latex", "root", vfs.DefaultPerm, []byte("#! the latex binary (demonstration)\n"))
	_, err3 := st.Mkdir("/docs", "root", ww)
	_, err4 := st.CreateWith("/docs/README", "root", ww, []byte("welcome to the lease file service\n"))
	return errors.Join(err1, err2, err3, err4)
}
