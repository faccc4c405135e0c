// Package sim is the discrete-time deep-learning-cluster simulator of §6.1.
// It replays a job trace against a cluster and a scheduling policy at fixed
// scheduling intervals (10 minutes in the paper), driving job progress from
// the ground-truth physics of the workload package: Eqn-2 step times made
// placement-aware via the Appendix transfer model, true loss curves for
// convergence, and checkpoint-based scaling pauses (§5.4).
//
// The scheduler side only observes noisy samples — pre-run speed profiles,
// online speed measurements and per-epoch losses — and builds its own
// lossfit/speedfit estimates, exactly mirroring how Optimus runs on a real
// cluster. Ground truth and estimation never mix unless a Config says so.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"optimus/internal/chaos"
	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/metrics"
	"optimus/internal/obs"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// Policy bundles an allocation algorithm with a placement algorithm; the
// ablation experiments (Fig 18/19) mix and match them.
type Policy struct {
	Name     string
	Allocate func(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation
	Place    func(reqs []core.PlacementRequest, c *cluster.Cluster) (map[int]core.Placement, []int)

	// Incr, when set, is the §4.1/§4.2 kernel pair behind Allocate and
	// Place. The round kernel (Round) hands its placement session the
	// pre-placement cluster preparation step (reset plus reservations),
	// retries unpackable jobs through its bare §4.2 kernel, attaches the
	// driver's tracer to both kernels and surfaces its round and migration
	// counters into the metrics.
	Incr *core.Incremental

	// Session, when set, returns a private instance of the policy for one
	// simulation run. Policies whose Allocate/Place closures carry reusable
	// scratch state (core.AllocState / core.PlaceState) need one instance per
	// run: experiment sweeps build a []Policy once and execute runs in
	// parallel, so sharing the closures would race on the scratch buffers.
	// Run calls Session once at startup; stateless policies leave it nil.
	Session func() Policy
}

// PriorEpochs is the convergence guess used before the loss fitter has
// enough data (the "beginning state" of §4.1), by Run and by the daemon.
const PriorEpochs float64 = 80

// StragglerSlowdown is the §5.2 speed of a job with a straggling worker: it
// trains at half its placed speed until the straggler is replaced.
const StragglerSlowdown = 0.5

// maxTime is Run's hard stop in simulated seconds: 40 days.
const maxTime = 40 * 24 * 3600

// Config parameterizes one simulation run.
type Config struct {
	Cluster *cluster.Cluster
	Jobs    []workload.JobSpec
	Policy  Policy

	Interval float64 // scheduling interval, seconds (paper: 600)
	Seed     int64

	// --- estimation behaviour ---
	// UseTrueModels bypasses online fitting and hands the scheduler the
	// ground-truth Q and f (used by the ablation studies to isolate the
	// allocation/placement algorithms from estimation error).
	UseTrueModels bool
	// PreRunSamples is the number of (p,w) profiling runs before each job
	// starts (§6.1 uses 5). Ignored when UseTrueModels is set.
	PreRunSamples int
	// SpeedNoise / LossNoise are relative observation noises (e.g. 0.03).
	SpeedNoise, LossNoise float64
	// PriorityFactor dampens the marginal gain of beginning-state jobs
	// (paper: 0.95; 1.0 disables). Only meaningful for the Optimus policy.
	PriorityFactor float64

	// --- Fig 15 controlled error injection (overrides fitting) ---
	// InjectConvError / InjectSpeedError e replace estimates with
	// truth·(1±e·(1−progress)), the paper's decay-with-progress scheme.
	InjectConvError, InjectSpeedError float64

	// --- scaling overhead (§5.4/§6.2) ---
	// ScalingBase is the fixed checkpoint/restart pause; ScalingPerTask is
	// added per task of the new configuration.
	ScalingBase, ScalingPerTask float64
	// ReconfigThreshold implements the §7 churn damper: a running job is
	// only rescaled when the predicted speed improvement exceeds this
	// fraction (e.g. 0.15 → 15%), avoiding checkpoint pauses for marginal
	// gains. Zero disables damping.
	ReconfigThreshold float64

	// Stragglers: probability per running job per interval that one worker
	// degrades (§5.2). Policies named "optimus" replace stragglers after one
	// detection interval; others suffer them for the job's lifetime on that
	// configuration.
	StragglerProb float64

	// Faults, when non-nil, is a chaos schedule replayed against the run:
	// node crashes, task kills, stragglers, network slowdowns, checkpoint
	// write failures and delayed recoveries (see internal/sim/faults.go for
	// the exact semantics). The same schedule and seed reproduce the same
	// run byte for byte.
	Faults *chaos.Schedule

	// ShareSchedule implements the §7 mixed-workload extension: Optimus asks
	// a central resource manager for a share of the cluster that varies over
	// time (e.g. more at night). The function maps simulation time to the
	// fraction of nodes available to DL jobs; nil means the whole cluster.
	ShareSchedule func(t float64) float64

	// --- observability (internal/obs) ---
	// Trace, when non-nil, receives one span tree per scheduling interval
	// (interval → fit / allocate / place / deploy, plus the kernel spans of
	// instrumented policies). Audit receives one decision per job per
	// interval (its grant and placement), stamped with the round number and
	// simulated time, under every policy. Both default to nil — off — at
	// zero cost to the run.
	Trace *obs.Tracer
	Audit *obs.AuditLog
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 600
	}
	if c.PreRunSamples <= 0 {
		c.PreRunSamples = 5
	}
	if c.PriorityFactor <= 0 {
		c.PriorityFactor = 1.0
	}
	if c.ScalingBase < 0 {
		c.ScalingBase = 0
	}
}

// Result is the outcome of one run.
type Result struct {
	Summary  metrics.Summary
	Timeline []metrics.IntervalStats
	// JCTs maps job ID → completion time − arrival (completed jobs only).
	JCTs map[int]float64
	// Unfinished lists jobs that did not converge within 40 simulated days.
	Unfinished []int
	// Intervals is the number of scheduling rounds executed.
	Intervals int
	// Metrics is the run's full recorder — Summary and Timeline above are
	// derived from it — including the wall-clock latency histograms of the
	// scheduling hot path (interval / refit / allocate / place).
	Metrics *metrics.Recorder
}

// jobState is the simulator's full view of one job: the Job both drivers
// share plus the simulator's own fault and error-injection state.
type jobState struct {
	Job
	done    bool
	errSign float64 // ±1, fixed per job, for Fig-15 injection

	// chaos-injected straggler shape: severity overrides the Config slowdown
	// and the degradation expires at stragglerUntil (0 → until replaced).
	stragglerSev   float64
	stragglerUntil float64

	// fault-recovery state (see faults.go)
	ckptProgress float64 // progress at the last successful checkpoint
	ckptSkip     bool    // next boundary checkpoint write fails (chaos)
	needRestore  bool    // crashed; owes a checkpoint-restore pause
	restoreDelay float64 // extra one-shot recovery delay (chaos)
}

// EpochsPerSecond converts a steps/s speed into epochs/s for the job: each
// aggregate step covers `batch` examples (m per worker-step for async, M per
// synchronized step for sync). Exported for the optimusd daemon, which runs
// the same job physics live instead of in a batch replay.
func EpochsPerSecond(spec workload.JobSpec, stepsPerSec float64) float64 {
	m := spec.Model
	examples := float64(m.DatasetSize)
	if spec.Downscale > 0 && spec.Downscale <= 1 {
		examples *= spec.Downscale
	}
	var batch float64
	if spec.Mode == speedfit.Sync {
		batch = float64(m.GlobalBatch)
	} else {
		batch = float64(m.BatchPerWkr)
	}
	return stepsPerSec * batch / examples
}

// deployHook, when set, sees each interval's active jobs once their
// deployments for the interval are applied. Tests pin schedules through it.
var deployHook func(round int, active []*jobState)

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	cfg.fillDefaults()
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("sim: no cluster")
	}
	if cfg.Policy.Allocate == nil || cfg.Policy.Place == nil {
		return nil, fmt.Errorf("sim: policy %q incomplete", cfg.Policy.Name)
	}
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	if cfg.Policy.Session != nil {
		// Materialize a run-private policy instance (per-run scheduler
		// scratch state); cfg is a copy, so the caller's Policy is untouched.
		cfg.Policy = cfg.Policy.Session()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rec := metrics.NewRecorder()
	fitCache := make(map[string]speedfit.Model)
	faults, err := newFaultRuntime(cfg.Faults, rec)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	states := make([]*jobState, len(cfg.Jobs))
	for i, spec := range cfg.Jobs {
		js := &jobState{Job: NewJob(spec), errSign: 1}
		if rng.Intn(2) == 0 {
			js.errSign = -1
		}
		states[i] = js
		rec.Arrive(spec.ID, spec.Arrival)
	}

	res := &Result{JCTs: make(map[int]float64), Metrics: rec}
	now := 0.0
	// Per-interval scratch, reused across intervals: the scheduling loop is
	// the simulator's hot path and these buffers otherwise churn the
	// allocator every 600 simulated seconds.
	var infos []*core.JobInfo
	var fits []*lossfit.Fitter
	// preparePlacement is the pre-placement cluster preparation step: wipe
	// all commitments, then re-reserve the nodes lent out (§7 shares) or down
	// (faults). The round kernel runs it before every placement, or hands it
	// to the placement session of a policy's kernel pair, which runs it.
	var prepErr error
	availNodes := cfg.Cluster.Len()
	preparePlacement := func(c *cluster.Cluster) {
		c.ResetAll()
		for _, n := range c.Nodes()[availNodes:] {
			if err := n.Allocate(n.Capacity); err != nil {
				prepErr = fmt.Errorf("sim: reserving node %s: %w", n.ID, err)
				return
			}
		}
		if faults != nil {
			for _, n := range c.Nodes()[:availNodes] {
				if !faults.isDown(n.ID, now) {
					continue
				}
				if err := n.Allocate(n.Capacity); err != nil {
					prepErr = fmt.Errorf("sim: reserving crashed node %s: %w", n.ID, err)
					return
				}
			}
		}
	}
	round := NewRound(cfg.Policy, cfg.Cluster, preparePlacement, cfg.Trace, cfg.Audit, rec)
	for now < maxTime {
		active := activeJobs(states, now)
		if len(active) == 0 {
			if allDone(states) {
				break
			}
			// Fast-forward to the next arrival, firing any faults in the
			// skipped stretch (outages must not be lost to idle time).
			next := nextArrival(states, now, cfg.Interval)
			if faults != nil {
				faults.collect(now, next, nil)
			}
			now = next
			continue
		}
		res.Intervals++
		intervalEnd := now + cfg.Interval
		cfg.Audit.Stamp(res.Intervals, now)
		ivSpan := cfg.Trace.Begin("interval")
		ivStart := time.Now()

		// Pre-run profiling for newly arrived jobs (once per job), then the
		// scheduler views — together the estimation phase of the interval.
		fitSpan := cfg.Trace.Begin("fit")
		if !cfg.UseTrueModels {
			for _, js := range active {
				if js.SpeedEst.Configurations() == 0 {
					PreRunProfile(js.SpeedEst, js.Spec, cfg.PreRunSamples, cfg.SpeedNoise, rng)
				}
			}
		}
		// The §3.1 refits run in parallel ahead of the views, on exactly the
		// fitters EstimatedEpochs would refit, so the views read caches.
		if cfg.InjectConvError <= 0 && !cfg.UseTrueModels {
			fits = fits[:0]
			for _, js := range active {
				if js.LossFit.Len() >= 5 {
					fits = append(fits, js.LossFit)
				}
			}
			lossfit.FitAll(fits, rec.ObserveRefitDuration)
		}
		infos = infos[:0]
		for _, js := range active {
			infos = append(infos, schedulerView(js, cfg, fitCache))
		}
		cfg.Trace.End(fitSpan)

		// §7 mixed workloads: only a share of the nodes may be available.
		availNodes = cfg.Cluster.Len()
		if cfg.ShareSchedule != nil {
			share := cfg.ShareSchedule(now)
			if share < 0.05 {
				share = 0.05
			}
			if share > 1 {
				share = 1
			}
			availNodes = int(math.Ceil(share * float64(cfg.Cluster.Len())))
			if availNodes < 1 {
				availNodes = 1
			}
		}

		// Allocate and place. Nodes inside a fault outage contribute no
		// capacity and are reserved by preparePlacement so placement cannot
		// touch them.
		var capacity cluster.Resources
		for _, n := range cfg.Cluster.Nodes()[:availNodes] {
			if faults != nil && faults.isDown(n.ID, now) {
				continue
			}
			capacity = capacity.Add(n.Capacity)
		}
		alloc := round.Allocate(infos, capacity)

		// §7 churn damper: keep a running job's configuration when the
		// proposed change is not predicted to pay for its checkpoint pause.
		if cfg.ReconfigThreshold > 0 {
			for _, js := range active {
				if !js.Placed || js.Alloc.Tasks() == 0 {
					continue
				}
				a := alloc[js.Spec.ID]
				if a == js.Alloc || a.Tasks() == 0 {
					continue
				}
				info := round.Info(js.Spec.ID)
				oldRate := info.Speed(js.Alloc.PS, js.Alloc.Workers)
				newRate := info.Speed(a.PS, a.Workers)
				if newRate < oldRate*(1+cfg.ReconfigThreshold) {
					round.Keep(js.Spec.ID, js.Alloc)
				}
			}
		}
		round.Place()
		if prepErr != nil {
			return nil, prepErr
		}

		// Apply deployments, charging scaling pauses for changed configs.
		deploySpan := cfg.Trace.Begin("deploy")
		for _, js := range active {
			pl, ok := round.Placement(js.Spec.ID)
			if !ok {
				js.Undeploy()
				continue
			}
			if fresh, changed := js.Deploy(pl); changed || fresh {
				pause := cfg.ScalingBase + cfg.ScalingPerTask*float64(js.Alloc.Tasks())
				if js.needRestore {
					// Requeued after a crash: the pause is a checkpoint
					// restore (§5.4) plus any injected recovery delay.
					pause = min(pause+js.restoreDelay, cfg.Interval)
					js.restoreDelay, js.needRestore = 0, false
					rec.AddRecoveryTime(pause)
				}
				js.Pause = min(pause, cfg.Interval)
				if changed { // §6.2 counts reconfiguration, not first launch
					rec.AddScalingTime(js.Pause)
				}
			}
			// Straggler lifecycle (§5.2): injected degradations expire on
			// their own; straggler-aware policies replace the slow worker
			// after one detection interval (a task restart when the worker
			// was chaos-killed rather than merely slow by chance).
			if js.Straggling {
				expired := js.stragglerUntil > 0 && js.stragglerUntil <= now
				replaced := policyHandlesStragglers(cfg.Policy)
				if expired || replaced {
					if replaced && !expired && js.stragglerSev > 0 {
						rec.AddRestarts(1)
					}
					js.Straggling = false
					js.stragglerSev = 0
					js.stragglerUntil = 0
				}
			}
			if cfg.StragglerProb > 0 && rng.Float64() < cfg.StragglerProb {
				js.Straggling = true
			}
		}
		if deployHook != nil {
			deployHook(res.Intervals, active)
		}

		// Fire this interval's faults now that placement is known: crashes
		// must hit the tasks where they actually landed.
		var crashAt map[int]float64
		if faults != nil {
			crashAt = faults.collect(now, intervalEnd, active)
		}

		// Advance one interval of progress.
		for _, js := range active {
			if !js.Placed || js.done {
				continue
			}
			crashT, crashed := crashAt[js.Spec.ID]
			end := intervalEnd
			if crashed && crashT < end {
				end = crashT
			}
			stepsPerSec := js.Spec.Model.PlacedSpeed(js.Spec.Mode, js.Spread)
			if js.Straggling {
				sev := StragglerSlowdown
				if js.stragglerSev > 0 {
					sev = js.stragglerSev
				}
				stepsPerSec *= sev
			}
			if faults != nil {
				stepsPerSec *= faults.netFactor(now)
			}
			w := js.Advance(now, end, stepsPerSec)
			js.Progress = w.Progress
			if w.Done {
				// Completion inside the window always beats a crash at its
				// end: the converged model is already checkpointed.
				js.done = true
				js.DoneAt = w.DoneAt
				rec.Complete(js.Spec.ID, js.DoneAt)
				res.JCTs[js.Spec.ID] = js.DoneAt - js.Spec.Arrival
			}
			// Online observations for the estimators. A crashed job's
			// interval telemetry dies with its tasks.
			if w.Trained && !cfg.UseTrueModels && !crashed {
				speed, loss := js.Measure(js.Progress, stepsPerSec, cfg.SpeedNoise, cfg.LossNoise, rng)
				js.Observe(js.Alloc.PS, js.Alloc.Workers, speed, js.Progress, loss)
			}
			if crashed && !js.done {
				faults.crash(js, w.Rate)
			}
		}

		// Interval-boundary checkpoints (§5.4): surviving deployments save
		// their state unless a chaos CheckpointFail eats the write. Crashed
		// jobs keep their previous checkpoint.
		for _, js := range active {
			if js.done || !js.Placed {
				continue
			}
			if js.ckptSkip {
				js.ckptSkip = false
				continue
			}
			js.ckptProgress = js.Progress
		}

		cfg.Trace.End(deploySpan)
		rec.Snapshot(snapshot(now, states, cfg))
		rec.ObserveIntervalDuration(time.Since(ivStart).Seconds())
		if cfg.Trace.Enabled() {
			cfg.Trace.Annotate(ivSpan, fmt.Sprintf("round=%d jobs=%d", res.Intervals, len(active)))
		}
		cfg.Trace.End(ivSpan)
		now = intervalEnd
	}

	for _, js := range states {
		if !js.done {
			res.Unfinished = append(res.Unfinished, js.Spec.ID)
		}
	}
	res.Summary = rec.Summarize()
	res.Timeline = rec.Timeline()
	return res, nil
}

func activeJobs(states []*jobState, now float64) []*jobState {
	var out []*jobState
	for _, js := range states {
		if !js.done && js.Spec.Arrival <= now {
			out = append(out, js)
		}
	}
	return out
}

func allDone(states []*jobState) bool {
	for _, js := range states {
		if !js.done {
			return false
		}
	}
	return true
}

func nextArrival(states []*jobState, now, interval float64) float64 {
	next := math.Inf(1)
	for _, js := range states {
		if !js.done && js.Spec.Arrival > now && js.Spec.Arrival < next {
			next = js.Spec.Arrival
		}
	}
	if math.IsInf(next, 1) {
		return now + interval
	}
	// Align to the interval grid.
	k := math.Ceil((next - now) / interval)
	if k < 1 {
		k = 1
	}
	return now + k*interval
}

// trueFitted builds the "perfect estimation" speed model for a job: an
// Eqn-3/4 model fitted to noise-free placed-speed samples. The fitted form's
// basis functions are monotone, so — exactly like the paper's learned models
// — it smooths over the colocation valley of the raw placement physics that
// would otherwise trap the greedy allocator in (1,1)-scale local optima.
// Results are cached per (model, mode) for the duration of a run.
func trueFitted(cfg Config, cache map[string]speedfit.Model, spec workload.JobSpec) (speedfit.Model, bool) {
	key := spec.Model.Name + "/" + spec.Mode.String()
	if m, ok := cache[key]; ok {
		return m, m.Valid()
	}
	var samples []speedfit.Sample
	placed := placedSpeed(cfg.Cluster, spec)
	for p := 1; p <= 16; p++ {
		for w := 1; w <= 16; w++ {
			s := placed(p, w)
			if s > 0 {
				samples = append(samples, speedfit.Sample{P: p, W: w, Speed: s})
			}
		}
	}
	m, err := speedfit.Fit(spec.Mode, samples, float64(spec.Model.GlobalBatch))
	if err != nil {
		cache[key] = speedfit.Model{}
		return speedfit.Model{}, false
	}
	cache[key] = m
	return m, true
}

// truePredictor returns the noise-free fitted steps/s predictor for a job,
// falling back to the smooth placed-speed surface when fitting fails.
func truePredictor(cfg Config, cache map[string]speedfit.Model, spec workload.JobSpec) func(p, w int) float64 {
	if m, ok := trueFitted(cfg, cache, spec); ok {
		return m.Speed
	}
	return placedSpeed(cfg.Cluster, spec)
}

// schedulerView builds the core.JobInfo the policy sees for one job: a
// remaining-work estimate Q (in epochs) and a speed function (epochs/s).
func schedulerView(js *jobState, cfg Config, fitCache map[string]speedfit.Model) *core.JobInfo {
	spec := js.Spec
	info := &core.JobInfo{
		ID:        spec.ID,
		WorkerRes: spec.Model.WorkerRes,
		PSRes:     spec.Model.PSRes,
	}
	if spec.Mode == speedfit.Sync {
		info.MaxWorkers = spec.Model.GlobalBatch // m = M/w must stay ≥ 1
	}

	progressFrac := 0.0
	if js.TotalEpochs > 0 {
		progressFrac = js.Progress / js.TotalEpochs
	}

	// --- remaining work Q (epochs) ---
	var totalEst float64
	switch {
	case cfg.InjectConvError > 0:
		e := cfg.InjectConvError * (1 - progressFrac)
		totalEst = js.TotalEpochs * (1 + js.errSign*e)
	case cfg.UseTrueModels:
		totalEst = js.TotalEpochs
	default:
		totalEst = EstimatedEpochs(js.LossFit, spec.Threshold, PriorEpochs)
	}
	remaining := totalEst - js.Progress
	if remaining < 0.1 {
		remaining = 0.1
	}
	info.RemainingWork = remaining

	// --- speed function (epochs/s) ---
	switch {
	case cfg.InjectSpeedError > 0:
		e := cfg.InjectSpeedError * (1 - progressFrac)
		factor := 1 + js.errSign*e
		if factor <= 0.01 {
			factor = 0.01
		}
		base := truePredictor(cfg, fitCache, spec)
		info.Speed = func(p, w int) float64 {
			return EpochsPerSecond(spec, base(p, w)) * factor
		}
	case cfg.UseTrueModels:
		base := truePredictor(cfg, fitCache, spec)
		info.Speed = func(p, w int) float64 {
			return EpochsPerSecond(spec, base(p, w))
		}
	default:
		info.Speed = estimatedSpeed(cfg.Cluster, spec, js.SpeedEst)
		// Beginning-state priority damping (§4.1).
		if progressFrac < 0.1 {
			info.Priority = cfg.PriorityFactor
		}
	}
	return info
}

// policyHandlesStragglers reports whether the policy performs §5.2 straggler
// replacement (only Optimus does in the paper's system).
func policyHandlesStragglers(p Policy) bool {
	return p.Name == "optimus"
}

// snapshot computes the Fig-14 interval statistics from the current states.
func snapshot(now float64, states []*jobState, cfg Config) metrics.IntervalStats {
	s := metrics.IntervalStats{Time: now}
	var wUtilSum, pUtilSum float64
	var wTasks, pTasks int
	var usedCPU float64
	for _, js := range states {
		if js.done {
			continue
		}
		if js.Spec.Arrival > now {
			continue
		}
		if !js.Placed {
			s.WaitingJobs++
			continue
		}
		s.RunningJobs++
		s.RunningTasks += js.Alloc.Tasks()
		wu, pu := taskUtilizations(js)
		wUtilSum += wu * float64(js.Alloc.Workers)
		pUtilSum += pu * float64(js.Alloc.PS)
		wTasks += js.Alloc.Workers
		pTasks += js.Alloc.PS
		usedCPU += js.Spec.Model.WorkerRes[cluster.CPU]*float64(js.Alloc.Workers) +
			js.Spec.Model.PSRes[cluster.CPU]*float64(js.Alloc.PS)
	}
	if wTasks > 0 {
		s.WorkerUtil = wUtilSum / float64(wTasks)
	}
	if pTasks > 0 {
		s.PSUtil = pUtilSum / float64(pTasks)
	}
	if total := cfg.Cluster.Capacity()[cluster.CPU]; total > 0 {
		s.ClusterShare = usedCPU / total
	}
	return s
}

// taskUtilizations derives the normalized CPU utilization of the job's
// workers and parameter servers from the Eqn-2 physics: a worker computes
// for m·T_fwd+T_back of each step; a PS is busy for its update and transfer
// share. The rest of the step is waiting — unused allocated CPU, which is
// what Fig 14(b)(c) visualizes.
func taskUtilizations(js *jobState) (worker, ps float64) {
	m := js.Spec.Model
	p, w := js.Alloc.PS, js.Alloc.Workers
	if p < 1 || w < 1 {
		return 0, 0
	}
	step := m.PlacedStepTime(js.Spec.Mode, js.Spread)
	if step <= 0 || math.IsInf(step, 1) {
		return 0, 0
	}
	var mEff float64
	if js.Spec.Mode == speedfit.Sync {
		mEff = float64(m.GlobalBatch) / float64(w)
	} else {
		mEff = float64(m.BatchPerWkr)
	}
	compute := mEff*m.FwdPerEx + m.Backward
	worker = clamp01(compute / step)

	update := (m.ModelBytes / m.UpdateRate) * float64(w) / float64(p)
	transfer := 2 * (m.ModelBytes / float64(p)) * float64(w) / m.PSBandwidth
	ps = clamp01((update + transfer*0.3) / step) // NIC DMA ≠ CPU; charge 30%
	return worker, ps
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
