package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/serve"
	"optimus/internal/wal"
)

// workloadFsync is the log policy of every end-to-end workload's daemon:
// records are framed and appended as under any policy, but nothing waits
// for an fsync. With fsync=group that wait is five sixths of a submit (0.25
// of 0.30 ms), a third of a serve-read client's time through its 10 % of
// writes, and half of a rounds-* set-up. On this host's shared disk it moves
// between 109 and 199 µs (median per half second) from one half second to
// the next and stays doubled for minutes at a time: two sets of runs of the
// same code differed by more than any bound, and no statistic within a run
// removes a slow phase longer than the run. What a group commit costs is for
// the probes to say (wal.*, serve.submit_us, serve.http_submit_us,
// serve.replay_*), on logs with fsync=group.
const workloadFsync = wal.FsyncOff

// bed is a daemon test bed: a real serve.Daemon over a uniform cluster with
// a real WAL in its own directory.
type bed struct {
	d       *serve.Daemon
	log     *wal.Log
	dir     string
	jobs    *jobGen
	traceAt time.Time // just before serve.New, hence just before the tracer's epoch
}

// newBed builds the daemon. fsync is the log's policy; tune may adjust the
// configuration (tick, tracing) before serve.New.
func newBed(e *env, nodes int, fsync wal.FsyncPolicy, tune func(*serve.Config)) (*bed, error) {
	dir, err := os.MkdirTemp(e.tmp, "wal-")
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: fsync})
	if err != nil {
		return nil, fmt.Errorf("wal.Open: %w", err)
	}
	cfg := serve.Config{
		Cluster: cluster.Uniform(nodes, nodeCapacity),
		Seed:    e.seed,
		Trace:   e.traced(),
		// Large enough for every span of a traced run (a wide round records
		// a few hundred), so one fetch at the end sees them all.
		TraceBuffer: 1 << 16,
	}
	if tune != nil {
		tune(&cfg)
	}
	b := &bed{log: log, dir: dir, jobs: newJobGen(e.seed), traceAt: time.Now()}
	b.d, err = serve.New(cfg)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	b.d.AttachWAL(log)
	return b, nil
}

// close releases the WAL; the directory goes with the run's scratch tree.
func (b *bed) close() error { return b.log.Close() }

// submit admits the job stream's next job in process.
func (b *bed) submit() (int, error) {
	id, err := b.d.Submit(b.jobs.submitRequest())
	if err != nil {
		return 0, fmt.Errorf("Daemon.Submit: %w", err)
	}
	return id, nil
}

// topUp submits until the daemon holds want live jobs again and returns
// how many it admitted.
func (b *bed) topUp(want int) (int, error) {
	n := 0
	for live := b.d.Cluster().LiveJobs; live < want; live++ {
		if _, err := b.submit(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// checkCapacity is the per-round output check: on every node, every
// resource's committed amount stays within the node's capacity.
func checkCapacity(cs serve.ClusterStatus) error {
	for _, n := range cs.Nodes {
		for res, used := range n.Used {
			if limit := n.Capacity[res]; used > limit*(1+1e-9) {
				return fmt.Errorf("round %d: node %s uses %g %s of %g", cs.Rounds, n.ID, used, res, limit)
			}
		}
	}
	return nil
}

// stepRef is one harness-driven Daemon.Step span, kept to hang the
// program's interval span under it.
type stepRef struct {
	id, trace  int64
	start, end int64 // recorder nanoseconds; zero on an untraced run
	dur        time.Duration
}

// foldDaemonTrace fetches the program's tracer spans from GET /v1/trace and
// records them under the harness spans that caused them: each interval
// under the Daemon.Step span containing it, or under root when the program
// drives its own rounds.
func (b *bed) foldDaemonTrace(rec *recorder, steps []stepRef, root int64) error {
	w := httptest.NewRecorder()
	b.d.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/trace", nil))
	if w.Code != 200 {
		return fmt.Errorf("GET /v1/trace: status %d", w.Code)
	}
	spans, err := obs.ReadChromeTrace(w.Body)
	if err != nil {
		return err
	}
	// Every harness-driven Step records one root span, its interval, so the
	// i-th root belongs to the i-th Step. The tracer's clock starts inside
	// serve.New, a moment after traceAt; no interval can start before the
	// Step that ran it, and the tightest of those bounds places the clock.
	offset := rec.since(b.traceAt)
	owner := make(map[int64]stepRef) // interval span id → step
	if len(steps) > 0 {
		var roots []obs.Span
		for _, s := range spans {
			if s.Parent == 0 {
				roots = append(roots, s)
			}
		}
		if len(roots) != len(steps) {
			return fmt.Errorf("the daemon's tracer holds %d intervals for %d Step calls", len(roots), len(steps))
		}
		offset = steps[0].start - roots[0].Start
		for i, s := range roots {
			owner[s.ID] = steps[i]
			offset = max(offset, steps[i].start-s.Start)
		}
	}

	// Rounds the engine loop ran on its own get trace ids of their own, past
	// any the harness handed out.
	ownTrace := int64(1) << 32
	foldSpans(rec, spans, offset, "serve", func(s obs.Span) (int64, int64) {
		if st, ok := owner[s.ID]; ok {
			return st.id, st.trace
		}
		ownTrace++
		return root, ownTrace
	})
	return nil
}
