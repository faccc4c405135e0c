// Package serve is the online scheduler daemon behind cmd/optimusd: the
// paper's Optimus run as a long-lived service rather than a batch replay.
// Jobs arrive over HTTP, are admitted into a concurrency-safe registry,
// profiled (§3.2 pre-run sampling), and rescheduled every interval by the
// same §4 allocator/placer kernels and §3 lossfit/speedfit estimators the
// simulator drives — but on a real-or-scaled wall-clock tick instead of a
// replayed trace. Execution physics are the workload package's ground-truth
// models, so the daemon is a live cluster emulator: submissions, allocation,
// placement, progress, convergence and cancellation all happen while the
// process serves traffic.
//
// The HTTP surface (see api.go):
//
//	POST   /v1/jobs              submit (admission-controlled)
//	GET    /v1/jobs              list
//	GET    /v1/jobs/{id}         status: fitted loss curve, remaining-epoch
//	                             estimate, current (PS, workers) allocation
//	GET    /v1/jobs/{id}/explain decision audit: the job's §4.1 grant and §4.2
//	                             placement of every round (needs -trace)
//	DELETE /v1/jobs/{id}         cancel with resource release
//	GET    /v1/cluster           per-node utilization
//	GET    /v1/events            SSE stream of scheduler decisions
//	GET    /v1/trace             scheduler spans as Chrome trace-event JSON
//	                             (needs -trace; open in Perfetto)
//	GET    /metrics              Prometheus text format, including scheduler
//	                             latency histograms
//	GET    /healthz              liveness
//
// Serving-path concurrency (DESIGN.md §16): the registry is sharded by job
// ID with per-shard locks, job and cluster statuses are immutable snapshots
// swapped in atomically (reads never block on the scheduler), and each SSE
// subscriber tails the one event ring, so publishing never waits on a slow
// one. The engine mutex serializes scheduling rounds only; it is not on any
// request path.
//
// Durability is the write-ahead log (wal.go): every state change is a
// record, and a checkpoint record holds a JSON snapshot of all job state
// (snapshot.go). ReplayWAL resumes every job with its fitted model state
// and progress intact, after a crash or a graceful stop alike.
//
// Each job has one record, its registry entry. The live paths and the WAL
// applier change it through one apply function per WAL record type
// (applySubmit, applyProfile, applyObserve, applyDeploy, applyFault,
// applyCancel, applyComplete and applyRound, in wal.go): the live path
// builds a record, appends it and applies it; the applier decodes one and
// applies it. Replay and Restore end in WALApplier.Finish. The /metrics job
// counters are read from the registry, so they survive a restart.
package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/metrics"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/wal"
)

// Config parameterizes the daemon. The zero value of every field has a
// sensible default filled in by New.
type Config struct {
	Cluster *cluster.Cluster // required

	// Interval is the simulated seconds of training each scheduling round
	// advances (the paper's 10-minute interval). Default 600.
	Interval float64
	// Tick is the wall-clock period between scheduling rounds in Run.
	// Tick == Interval·time.Second is real time; smaller is scaled time.
	// Default 1s (600× speedup at the default Interval).
	Tick time.Duration

	Seed int64 // default 1

	// Relative observation noise of the speed and loss estimators
	// (default 0.03).
	SpeedNoise, LossNoise float64

	// ScalingBase is the checkpoint/restart pause, in simulated seconds and
	// capped at one Interval, of a job launched or reconfigured this round
	// (§5.4). Only a reconfiguration counts toward scaling time (§6.2).
	ScalingBase float64

	// Stragglers: per running job per round, probability that one worker
	// degrades to sim.StragglerSlowdown speed (§5.2). The Optimus policy
	// replaces the straggler after one detection round. Zero disables.
	StragglerProb float64

	// MaxJobs is the admission-control cap on live (non-terminal) jobs;
	// submissions beyond it are rejected with 429. Default 4096.
	MaxJobs int

	// WALCheckpointRounds is how many scheduling rounds pass between
	// snapshot checkpoints on an attached WAL (wal.go): each checkpoint
	// anchors replay and retires every earlier segment. Default 512;
	// negative disables periodic checkpoints (graceful shutdown still
	// writes one). Ignored without AttachWAL.
	WALCheckpointRounds int

	// Trace enables the internal/obs observability layer: per-round span
	// trees (exported as Chrome trace-event JSON at GET /v1/trace) and the
	// decision audit log, one record per job per round, behind
	// GET /v1/jobs/{id}/explain. Off by default; both endpoints then return
	// 404 and the scheduling loop pays no tracing cost.
	Trace bool
	// TraceBuffer sizes the span ring. Default obs.DefaultSpanBuffer; the
	// audit ring holds obs.DefaultAuditBuffer decisions.
	TraceBuffer int

	// Flight is the always-on black-box flight recorder fed by the engine
	// loop, WAL, HA and SSE drop paths, dumped by GET /debug/bundle. Unlike
	// Trace it is on by default (the record path is one uncontended lock and
	// no allocation): when nil, New creates one of obs.DefaultFlightBuffer
	// capacity. Pass a shared recorder so daemon-external components (the
	// lease renewer, the follower tailer) land in the same ring.
	Flight *obs.FlightRecorder

	// SLOAPILatencyTarget is the per-request latency objective behind the
	// optimus_slo_* burn-rate gauges and the "slo" block of GET /v1/cluster
	// (default 100ms).
	SLOAPILatencyTarget time.Duration
}

// The paper's fixed estimation settings, and the daemon's readiness, event
// and SLO bounds.
const (
	preRunSamples  = 5    // §3.2 profiling runs per job
	priorityFactor = 0.95 // §4.1 damping of beginning-state jobs

	// eventBuffer is the size of the event ring every SSE subscriber tails:
	// how many past scheduler decisions a late subscriber can replay, and
	// how far a slow one can fall behind before it misses some.
	eventBuffer = 4096
	// engineStaleTicks bounds the engine readiness check in GET /readyz: a
	// leader whose last scheduling round is more than this many Ticks old
	// is not ready.
	engineStaleTicks = 10
	// maxFollowerLag bounds the follower readiness check: a follower more
	// than this many WAL records behind the leader is not ready.
	maxFollowerLag = 64

	// sloOverrunTarget is the tolerated fraction of scheduling rounds that
	// outlast the tick; sloAPIErrorBudget the tolerated fraction of
	// requests that are slow (over SLOAPILatencyTarget) or 5xx.
	sloOverrunTarget  = 0.01
	sloAPIErrorBudget = 0.01
)

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 600
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SpeedNoise == 0 {
		c.SpeedNoise = 0.03
	}
	if c.LossNoise == 0 {
		c.LossNoise = 0.03
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.WALCheckpointRounds == 0 {
		c.WALCheckpointRounds = 512
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = obs.DefaultSpanBuffer
	}
	if c.SLOAPILatencyTarget <= 0 {
		c.SLOAPILatencyTarget = 100 * time.Millisecond
	}
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StatePending: admitted, not yet seen by a scheduling round.
	StatePending JobState = "pending"
	// StateWaiting: seen by the scheduler but currently without tasks
	// (allocation starved or placement failed).
	StateWaiting JobState = "waiting"
	// StateRunning: tasks deployed, training in progress.
	StateRunning JobState = "running"
	// StateDone: converged.
	StateDone JobState = "done"
	// StateCancelled: cancelled by the owner; resources released.
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state can never change again.
func (s JobState) terminal() bool { return s == StateDone || s == StateCancelled }

// job is the daemon's full view of one submitted job: the sim.Job the
// simulator keeps too, plus the daemon's lifecycle and serving state. Field
// ownership is split between two locks so cancels and status reads never
// wait on a scheduling round:
//
//   - Spec, TotalEpochs and submittedWall are immutable after admission.
//   - state and the deployment fields Placed, Alloc, Spread and Nodes are
//     guarded by the job's registry shard lock; both the engine and Cancel
//     mutate them under it.
//   - Progress, DoneAt, Straggling, Pause, LossFit, SpeedEst and profiled
//     are estimation/physics state owned by the engine, guarded by the
//     engine mutex (Daemon.mu); the serving path never reads them directly.
//   - Every field a WAL record carries changes only in that record type's
//     apply function (wal.go). Spread and Pause are physics inputs no record
//     carries: the engine sets them from the round's placement, so a
//     replayed or restored job has none until a round places it.
//   - status is the job's read-mostly snapshot: an immutable JobStatus (plus
//     a lazily cached JSON encoding) republished on every state change. All
//     reads go through it, lock-free.
type job struct {
	sim.Job
	submittedWall time.Time
	state         JobState // shard-guarded
	profiled      bool

	// status is the atomically swapped read-mostly view (api.go).
	status atomic.Pointer[statusSnap]
}

// Daemon owns the job registry, the cluster state and the scheduling loop.
// All methods are safe for concurrent use.
type Daemon struct {
	cfg Config
	// round is the scheduling-round kernel shared with sim.Run, running
	// OptimusPolicy over the kernel pair incr.
	round *sim.Round
	incr  *core.Incremental
	bus   *eventBus
	fits  []*lossfit.Fitter // refitLocked's engine-guarded buffer
	// walBuf is the engine-guarded scratch the binary observe and deploy
	// WAL payloads are encoded in (the log copies what it appends).
	walBuf []byte
	// capMaps and usedMaps are publishClusterLocked's per-node map caches.
	capMaps, usedMaps resourceMaps
	// tracer/audit are non-nil only when cfg.Trace is set; every use is
	// nil-receiver-safe, so the disabled daemon skips the whole layer.
	tracer *obs.Tracer
	audit  *obs.AuditLog
	// flight is the always-on black-box recorder (health.go, bundle.go).
	flight *obs.FlightRecorder

	// reg is the sharded job registry; see registry.go and the field
	// ownership protocol on job.
	reg registry

	// Serving-path state: everything the HTTP handlers touch on their hot
	// paths is atomic or shard-guarded — never behind the engine mutex.
	nextID      atomic.Int64 // last assigned job ID
	live        atomic.Int64 // non-terminal jobs, for admission control
	rejected    atomic.Int64
	simNow      atomic.Uint64 // Float64bits of the simulated clock
	roundsN     atomic.Int64
	overruns    atomic.Int64 // Run ticks whose Step outlasted cfg.Tick
	clusterSnap atomic.Pointer[clusterSnapshot]
	apiHist     obs.Histogram // API latency, written lock-free
	apiSlow     atomic.Int64  // API requests over SLOAPILatencyTarget
	apiErrs     atomic.Int64  // API responses with a 5xx status

	// Readiness state (health.go): wall nanos of the last completed round,
	// and the fail-stop reason once the daemon has permanently stood down.
	lastRoundWall atomic.Int64
	failStop      atomic.Pointer[string]

	// Durability / HA seam (wal.go): the attached log, follower mode, the
	// published HA role, and the WAL health counters.
	wlog        atomic.Pointer[wal.Log]
	readOnly    atomic.Bool
	haStat      atomic.Pointer[HAStatus]
	walErrs     atomic.Int64
	walReplayed atomic.Int64

	// mu is the engine mutex: it serializes scheduling rounds, snapshot and
	// restore, and guards the fields below plus every job's engine-guarded
	// fields. No HTTP read path takes it; /metrics takes it only around the
	// unsynchronized recorder.
	mu     sync.Mutex
	now    float64 // canonical simulated clock, mirrored into simNow
	rounds int     // mirrored into roundsN
	rec    *metrics.Recorder
	rng    *rand.Rand

	startWall time.Time
}

// New builds a daemon over the given cluster. It does not start the
// scheduling loop; call Run (or Step from tests).
func New(cfg Config) (*Daemon, error) {
	cfg.fillDefaults()
	if cfg.Cluster == nil || cfg.Cluster.Len() == 0 {
		return nil, fmt.Errorf("serve: config needs a non-empty cluster")
	}
	flight := cfg.Flight
	if flight == nil {
		flight = obs.NewFlightRecorder(obs.DefaultFlightBuffer)
	}
	policy := sim.OptimusPolicy().Session()
	d := &Daemon{
		cfg:       cfg,
		incr:      policy.Incr,
		bus:       newEventBus(eventBuffer, flight),
		flight:    flight,
		rec:       metrics.NewRecorder(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		startWall: time.Now(),
	}
	// Engine freshness is measured from construction until the first round.
	d.lastRoundWall.Store(d.startWall.UnixNano())
	d.reg.init()
	if cfg.Trace {
		d.tracer = obs.NewTracer(cfg.TraceBuffer)
		d.audit = obs.NewAuditLog(obs.DefaultAuditBuffer)
	}
	d.round = sim.NewRound(policy, cfg.Cluster, nil, d.tracer, d.audit, d.rec)
	d.mu.Lock()
	d.publishClusterLocked()
	d.mu.Unlock()
	return d, nil
}

// Now returns the daemon's simulated clock. Lock-free.
func (d *Daemon) Now() float64 {
	return math.Float64frombits(d.simNow.Load())
}

// Rounds returns the number of scheduling rounds executed. Lock-free.
func (d *Daemon) Rounds() int {
	return int(d.roundsN.Load())
}

// Flight returns the daemon's black-box recorder, for sharing with
// components outside the daemon (lease renewer, follower tailer, logger).
func (d *Daemon) Flight() *obs.FlightRecorder { return d.flight }

// advanceClockLocked moves the canonical simulated clock and its lock-free
// mirror. Callers hold d.mu.
func (d *Daemon) advanceClockLocked(t float64) {
	d.now = t
	d.simNow.Store(math.Float64bits(t))
}

// Submit admits one job into the registry. It returns the assigned ID, or
// an admission error (ErrFull, or validation failure). The whole path is
// lock-free against the scheduler: admission is an atomic counter, the
// registry insert takes only the job's shard lock.
func (d *Daemon) Submit(req SubmitRequest) (int, error) {
	spec, err := req.spec()
	if err != nil {
		return 0, err
	}
	if d.readOnly.Load() {
		return 0, ErrNotLeader
	}
	if d.live.Add(1) > int64(d.cfg.MaxJobs) {
		d.live.Add(-1)
		d.rejected.Add(1)
		return 0, ErrFull
	}
	id := int(d.nextID.Add(1))
	p := walSubmit{
		ID: id, Model: spec.Model.Name, Mode: spec.Mode.String(),
		Threshold: spec.Threshold, Downscale: spec.Downscale,
		Arrival: d.Now(), Wall: time.Now(),
	}
	// Write-ahead: the admission is durable before the job is findable, so
	// every acked submission survives a crash and no engine record for the
	// job can precede its submit record. A failed append burns the assigned
	// ID (replay's nextID skips it — the submission was never acked).
	if err := d.walAppendDurable(wal.TypeSubmit, p); err != nil {
		d.live.Add(-1)
		return 0, fmt.Errorf("serve: wal append: %w", err)
	}
	// Publish before the registry insert: the job cannot be cancelled until
	// it is findable, so its "submitted" event is always first in the stream.
	d.publish(Event{Type: EventSubmitted, Job: id,
		Detail: fmt.Sprintf("%s %s th=%g", spec.Model.Name, spec.Mode, spec.Threshold)})
	d.applySubmit(spec, p)
	return id, nil
}

// Cancel transitions a job to StateCancelled. Its resources are released at
// the next scheduling round (the cluster is rebuilt from live placements
// every round). Terminal jobs cannot be cancelled. Only the job's shard lock
// is taken: a cancel never waits for a scheduling round.
func (d *Daemon) Cancel(id int) error {
	if d.readOnly.Load() {
		return ErrNotLeader
	}
	j := d.reg.get(id)
	if j == nil {
		return ErrNotFound
	}
	sh := d.reg.shard(id)
	sh.mu.Lock()
	if j.state.terminal() {
		sh.mu.Unlock()
		return ErrTerminal
	}
	p := walCancel{ID: id}
	d.applyCancel(j, p)
	d.publish(Event{Type: EventCancelled, Job: id})
	sh.mu.Unlock()
	// Durable after the shard-locked apply: the engine re-checks terminal
	// state under the shard lock before every mutation, so no state-changing
	// record for this job can land after this one.
	if err := d.walAppendDurable(wal.TypeCancel, p); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	return nil
}

// Run drives the scheduling loop until ctx is cancelled: one Step every
// cfg.Tick of wall time. Rounds that outlast the tick are counted as
// interval overruns (exported via /metrics and /v1/cluster) — the daemon's
// core SLO signal under load.
func (d *Daemon) Run(ctx context.Context) {
	t := time.NewTicker(d.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			start := time.Now()
			d.Step()
			if elapsed := time.Since(start); elapsed > d.cfg.Tick {
				d.overruns.Add(1)
				d.flight.Record("engine", obs.SevWarn, "interval overrun",
					obs.KI("elapsedMs", elapsed.Milliseconds()),
					obs.KI("tickMs", d.cfg.Tick.Milliseconds()),
					obs.KI("round", int64(d.roundsN.Load())))
			}
		}
	}
}

// publish stamps and emits one event. Unlike the pre-sharding daemon this
// needs no global lock: the bus assigns sequence numbers internally, and
// callers that need event order to match state-change order for a job
// publish while holding that job's shard lock.
func (d *Daemon) publish(ev Event) {
	ev.Wall = time.Now()
	ev.SimTime = d.Now()
	d.bus.publish(ev)
}
