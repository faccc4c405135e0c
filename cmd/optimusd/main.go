// Command optimusd runs the Optimus scheduler as a long-lived daemon: jobs
// are submitted over HTTP, rescheduled every interval by the §4
// allocator/placer driven by §3 online-fitted models, and observable via a
// streaming event feed and Prometheus metrics.
//
// Usage:
//
//	optimusd -addr :8080                         # paper testbed cluster
//	optimusd -nodes 20 -interval 600 -tick 1s    # 20 uniform nodes, 600x time
//	optimusd -wal-dir ./wal -fsync group         # durable write-ahead log
//	optimusd -wal-dir ./wal -follow              # warm-standby follower
//	optimusd -trace=false                        # disable decision tracing
//	optimusd -pprof-addr localhost:6060          # expose net/http/pprof
//	optimusd -version                            # print build info and exit
//
// Durability (-wal-dir): every acked submission, cancellation and scheduling
// round is framed into a segmented write-ahead log before it takes effect;
// on restart (after a crash, kill -9 included, or a graceful stop) the
// daemon replays the log and resumes with byte-identical job state. The log
// is the only restore path: without -wal-dir nothing outlives the process.
// -fsync picks the durability/latency trade: "each" (fsync per record),
// "group" (concurrent acks share one fsync — the default) or "off"
// (benchmarks only: no fsync; records reach the file at 64 KiB of pending
// appends, at a segment roll, at Sync or at Close).
//
// High availability (-follow): a second optimusd pointed at the same
// -wal-dir runs as a warm standby — it tails the leader's log into a live
// engine, serves all read endpoints (writes get 503 + the leader hint), and
// when the leader's lease (a file next to the log) expires it takes over
// within one -lease-ttl: drains the tail, repairs any torn record, bumps the
// lease term, and starts scheduling. Admission is exactly-once across the
// cutover because the log is the admission ledger.
//
// Tracing (-trace, on by default) records per-round scheduler spans and one
// audited decision per job per round (its grant and placement), served at
// GET /v1/trace (Chrome trace-event JSON) and GET /v1/jobs/{id}/explain.
// Profiling (-pprof-addr, off by default) starts a second listener serving
// only the pprof handlers, so profiles never share a port with the public
// API.
//
// Observability: an always-on flight recorder (internal/obs) keeps the last
// few thousand structured engine/WAL/HA events in a ring. GET /readyz is the
// traffic gate (per-component checks, distinct from /healthz liveness) and
// GET /debug/bundle packages the flight tail, goroutine stacks, a metrics
// snapshot and build info into one JSON document. The same bundle is written
// to disk next to the WAL on fail-stop (a lost leader lease) and on SIGQUIT,
// so a dead daemon leaves its black box behind.
//
// A graceful shutdown (SIGINT/SIGTERM) drains in-flight requests and, when
// -wal-dir is set, writes a WAL checkpoint, so a restart on the same
// -wal-dir resumes every job with its fitted model state and progress
// intact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/ha"
	"optimus/internal/obs"
	"optimus/internal/serve"
	"optimus/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (use :0 for a random port)")
		portfile = flag.String("portfile", "", "write the bound address to this file (for scripts using -addr :0)")
		nodes    = flag.Int("nodes", 0, "uniform cluster size; 0 uses the paper's 13-node testbed")
		interval = flag.Float64("interval", 600, "simulated seconds of training per scheduling round")
		tick     = flag.Duration("tick", time.Second, "wall-clock period between rounds (tick < interval·1s runs faster than real time)")
		seed     = flag.Int64("seed", 1, "PRNG seed for observation noise and stragglers")
		maxJobs  = flag.Int("max-jobs", 4096, "admission-control cap on live jobs")

		walDir     = flag.String("wal-dir", "", "write-ahead log directory; enables crash-consistent durability")
		fsyncMode  = flag.String("fsync", "group", "WAL fsync policy: each, group or off (off never fsyncs; records reach the file at 64 KiB pending, a segment roll, Sync or Close)")
		follow     = flag.Bool("follow", false, "run as a warm-standby follower tailing -wal-dir; takes over when the leader's lease expires")
		leaseTTL   = flag.Duration("lease-ttl", 5*time.Second, "leader lease validity window")
		haID       = flag.String("ha-id", "", "identity in the leader lease (default host:pid)")
		ckptRounds = flag.Int("wal-checkpoint-rounds", 0, "rounds between WAL snapshot checkpoints (0 uses the serve default, negative disables)")

		stragglerProb = flag.Float64("straggler-prob", 0, "per-job per-round straggler probability (§5.2)")
		speedNoise    = flag.Float64("speed-noise", 0.03, "relative speed observation noise")
		lossNoise     = flag.Float64("loss-noise", 0.03, "relative loss observation noise")
		scalingBase   = flag.Float64("scaling-base", 0, "fixed scaling pause in simulated seconds (§5.4)")

		traceOn     = flag.Bool("trace", true, "record scheduler spans and the decision audit (GET /v1/trace, /v1/jobs/{id}/explain)")
		traceBuffer = flag.Int("trace-buffer", 0, "span ring size (0 uses the obs package default)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
		logLevel    = flag.String("log-level", "info", "stderr log level: debug, info, warn or error (the flight recorder keeps all levels)")
		version     = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("optimusd", obs.Build())
		return
	}
	// The flight recorder outlives any single subsystem: the logger tees every
	// line into it, the daemon/lease/tailer record their own events, and the
	// debug bundle dumps it. One ring per process.
	flight := obs.NewFlightRecorder(0)
	lg := obs.NewLogger(os.Stderr, "optimusd", flight)
	lg.SetTimestamps(true)
	lvl, err := obs.ParseSeverity(*logLevel)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	lg.SetLevel(lvl)
	fsync, err := wal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	id := *haID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	opts := options{
		addr: *addr, portfile: *portfile,
		pprofAddr: *pprofAddr,
		nodes:     *nodes,
		walDir:    *walDir, fsync: fsync, follow: *follow,
		leaseTTL: *leaseTTL, haID: id,
		cfg: serve.Config{
			Interval:            *interval,
			Tick:                *tick,
			Seed:                *seed,
			MaxJobs:             *maxJobs,
			StragglerProb:       *stragglerProb,
			SpeedNoise:          *speedNoise,
			LossNoise:           *lossNoise,
			ScalingBase:         *scalingBase,
			Trace:               *traceOn,
			TraceBuffer:         *traceBuffer,
			WALCheckpointRounds: *ckptRounds,
			Flight:              flight,
		},
	}
	if err := run(opts, lg); err != nil {
		lg.Fatalf("%v", err)
	}
}

// options is everything main parses from flags: the daemon Config plus the
// process-level concerns (listeners, the WAL/HA role) that wrap it.
type options struct {
	addr, portfile string
	pprofAddr      string
	nodes          int
	walDir         string
	fsync          wal.FsyncPolicy
	follow         bool
	leaseTTL       time.Duration
	haID           string
	cfg            serve.Config
}

// bundlePath names an on-disk debug bundle next to the WAL (or in the
// working directory for a WAL-less daemon), tagged with the trigger and pid.
func bundlePath(walDir, trigger string) string {
	dir := walDir
	if dir == "" {
		dir = "."
	}
	return filepath.Join(dir, fmt.Sprintf("bundle-%s-%d.json", trigger, os.Getpid()))
}

func run(opts options, lg *obs.Logger) error {
	flight := lg.Flight()
	var c *cluster.Cluster
	if opts.nodes > 0 {
		c = cluster.Uniform(opts.nodes, cluster.Resources{
			cluster.CPU: 32, cluster.Memory: 128,
			cluster.GPU: 4, cluster.Bandwidth: 10,
		})
	} else {
		c = cluster.Testbed()
	}
	opts.cfg.Cluster = c

	d, err := serve.New(opts.cfg)
	if err != nil {
		return err
	}

	// A fatal log call (lost lease, unrecoverable fault) writes the black box
	// to disk before the process exits: fail-stop leaves evidence behind.
	lg.SetOnFatal(func(reason string) {
		d.FailStop(reason)
		p := bundlePath(opts.walDir, "failstop")
		if err := d.WriteBundle(p, "fail-stop: "+reason); err != nil {
			fmt.Fprintf(os.Stderr, "optimusd: fail-stop bundle: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "optimusd: fail-stop bundle written to %s\n", p)
		}
	})

	// SIGQUIT dumps a bundle without dying — the live-incident counterpart of
	// the fail-stop bundle.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			p := bundlePath(opts.walDir, "sigquit")
			if err := d.WriteBundle(p, "sigquit"); err != nil {
				lg.Errorf("sigquit bundle: %v", err)
			} else {
				lg.Infof("sigquit bundle written to %s", p)
			}
		}
	}()
	defer signal.Stop(sigq)

	var lease *ha.Lease
	if opts.walDir != "" {
		if err := os.MkdirAll(opts.walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
		lease = &ha.Lease{
			Path: filepath.Join(opts.walDir, "LEASE"),
			ID:   opts.haID, TTL: opts.leaseTTL,
			Flight: flight,
		}
	}
	if opts.follow && lease == nil {
		return errors.New("-follow requires -wal-dir")
	}

	// Leader (or plain single-node) startup: claim the lease first, then
	// rebuild state from the WAL history.
	var term uint64 = 1
	var wlog *wal.Log
	if !opts.follow {
		if lease != nil {
			st, ok, err := lease.TryAcquire()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("leader lease held by %q (term %d) until %s; start with -follow to run as a warm standby",
					st.Holder, st.Term, st.Expires.Format(time.RFC3339))
			}
			term = st.Term
			defer lease.Release()
		}
		if opts.walDir != "" {
			if err := recoverState(opts.walDir, d, lg); err != nil {
				return err
			}
			wlog, err = wal.Open(wal.Options{Dir: opts.walDir, Fsync: opts.fsync,
				Flight: flight})
			if err != nil {
				return err
			}
			defer wlog.Close()
			d.AttachWAL(wlog)
		}
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	if opts.portfile != "" {
		if err := os.WriteFile(opts.portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing portfile: %w", err)
		}
	}
	role := "leader"
	if opts.follow {
		role = "follower"
	} else if opts.walDir == "" {
		role = "standalone"
	}
	lg.Infof("%s", obs.Build())
	lg.Infof("listening on %s (%s, %d nodes, interval %gs, tick %s)",
		ln.Addr(), role, c.Len(), opts.cfg.Interval, opts.cfg.Tick)

	if opts.pprofAddr != "" {
		pln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		// An explicit mux rather than http.DefaultServeMux: the profiling
		// listener serves pprof and nothing else.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				lg.Errorf("pprof server: %v", err)
			}
		}()
		defer pln.Close()
		lg.Infof("pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The HTTP surface is up in both roles: a follower serves every read
	// endpoint (writes get 503 ErrNotLeader) while it tails the log.
	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if opts.follow {
		newTerm, promoted, err := followLoop(ctx, d, opts, lease, lg)
		if err != nil {
			shutdownHTTP(srv, lg)
			return err
		}
		if !promoted { // clean shutdown while still following
			shutdownHTTP(srv, lg)
			return nil
		}
		term = newTerm
		// Take over: open-for-write repairs the dead leader's torn tail,
		// then the promotion is announced in the log itself.
		wlog, err = wal.Open(wal.Options{Dir: opts.walDir, Fsync: opts.fsync,
			Flight: flight})
		if err != nil {
			shutdownHTTP(srv, lg)
			return fmt.Errorf("takeover: %w", err)
		}
		defer wlog.Close()
		defer lease.Release()
		d.AttachWAL(wlog)
		d.SetReadOnly(false)
		lg.Infof("promoted to leader at term %d (sim time %.0fs, %d rounds)",
			term, d.Now(), d.Rounds())
	}

	if wlog != nil {
		if err := d.WALAppendMembership(opts.haID, term, "leader"); err != nil {
			shutdownHTTP(srv, lg)
			return err
		}
		d.SetHAStatus(serve.HAStatus{Role: "leader", ID: opts.haID, Term: term,
			LeaseHolder: opts.haID})
		go renewLoop(ctx, lease, lg)
	}

	// Scheduler event loop.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		d.Run(ctx)
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	lg.Infof("shutting down")
	shutdownHTTP(srv, lg)
	<-loopDone

	if wlog != nil {
		if err := d.WALCheckpoint(); err != nil {
			lg.Errorf("wal checkpoint: %v", err)
		}
	}
	return nil
}

func shutdownHTTP(srv *http.Server, lg *obs.Logger) {
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		lg.Errorf("http shutdown: %v", err)
	}
}

// recoverState rebuilds the daemon from the WAL in dir at leader startup.
func recoverState(dir string, d *serve.Daemon, lg *obs.Logger) error {
	replayed, err := d.ReplayWAL(dir)
	if err != nil {
		return err
	}
	if replayed.Records > 0 {
		lg.Infof("replayed %d wal records (last seq %d, checkpoint %d, torn tail: %v): sim time %.0fs, %d rounds",
			replayed.Records, replayed.AppliedSeq, replayed.Checkpoint,
			replayed.Torn, d.Now(), d.Rounds())
	}
	if replayed.Duplicates > 0 {
		return fmt.Errorf("wal replay: %d duplicate admissions — log corrupt", replayed.Duplicates)
	}
	return nil
}

// followLoop tails the leader's log into the warm standby until the leader
// lease expires (→ returns the new term and true) or ctx is cancelled
// (→ false). The poll period is a fraction of the lease TTL so takeover
// lands well within one TTL of the leader dying.
func followLoop(ctx context.Context, d *serve.Daemon, opts options, lease *ha.Lease, lg *obs.Logger) (uint64, bool, error) {
	applier := d.NewWALApplier()
	tailer := &ha.Tailer{Dir: opts.walDir, Flight: lg.Flight()}
	d.SetReadOnly(true)
	d.SetHAStatus(serve.HAStatus{Role: "follower", ID: opts.haID})
	poll := opts.leaseTTL / 5
	if poll < 20*time.Millisecond {
		poll = 20 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	var lag uint64
	for {
		select {
		case <-ctx.Done():
			return 0, false, nil
		case <-t.C:
		}
		n, torn, err := tailer.Poll(applier.Apply)
		if err != nil {
			return 0, false, fmt.Errorf("follow: %w", err)
		}
		// A torn tail mid-follow is the leader mid-write: the records behind
		// the tear count as lag until a later poll reads them whole.
		if torn {
			lag++
		} else {
			lag = 0
		}
		st, err := lease.Read()
		if err != nil {
			return 0, false, err
		}
		if n > 0 || st.Term > 0 {
			d.SetHAStatus(serve.HAStatus{Role: "follower", ID: opts.haID,
				Term: st.Term, LeaseHolder: st.Holder,
				AppliedSeq: applier.AppliedSeq(), LagRecords: lag})
		}
		if st.Held(time.Now()) {
			continue
		}
		got, ok, err := lease.TryAcquire()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			continue // another standby won; keep following
		}
		// Drain whatever the dead leader managed to write, then promote.
		if _, _, err := tailer.Poll(applier.Apply); err != nil {
			return 0, false, fmt.Errorf("takeover drain: %w", err)
		}
		applier.Finish()
		if dups := applier.Duplicates(); dups > 0 {
			return 0, false, fmt.Errorf("takeover: %d duplicate admissions in log", dups)
		}
		lg.Infof("leader lease (holder %q) expired: taking over at term %d after %d applied records",
			st.Holder, got.Term, applier.Records())
		return got.Term, true, nil
	}
}

// renewLoop keeps the leader lease alive and fail-stops the process the
// moment renewal discovers another holder: a deposed leader must never ack
// another write, or the new leader's history would fork. The fatal path runs
// the logger's OnFatal hook, which writes the fail-stop debug bundle before
// the process exits.
func renewLoop(ctx context.Context, lease *ha.Lease, lg *obs.Logger) {
	t := time.NewTicker(lease.TTL / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := lease.Renew(); err != nil {
				lg.Fatalf("leader lease lost (%v): fail-stop", err)
			}
		}
	}
}
