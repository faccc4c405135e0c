package serve

import (
	"fmt"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/metrics"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/wal"
)

// Step executes one scheduling round: profile newly admitted jobs, rebuild
// the scheduler's estimated views, re-run §4.1 allocation and §4.2
// placement against the whole cluster through the round kernel sim.Run
// also runs (sim.Round), then apply, advance and observe each job through
// the sim.Job methods sim.Run also calls: Deploy or Undeploy it, Advance it
// by one interval of the ground-truth physics, and Observe the noisy
// measurements into its estimators. Around those calls Step adds what only
// the daemon has: shard locks, lifecycle states, SSE events and WAL
// records. It is the live equivalent of one iteration of sim.Run's interval
// loop and is safe to call concurrently with the HTTP handlers.
//
// Concurrency: Step holds the engine mutex for the whole round, but the
// round never freezes the serving path — deployment state is swapped in and
// out through the registry's shard seams (short per-job shard-lock critical
// sections), so submits, cancels and status reads on other jobs proceed
// while the round runs.
func (d *Daemon) Step() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stepLocked()
}

// active returns the schedulable jobs in submission order, reading each
// job's state under its shard lock. A job cancelled after this cut is
// re-checked under its shard lock before any deployment mutation.
func (d *Daemon) active() []*job {
	return d.reg.collect(func(j *job) bool { return !j.state.terminal() })
}

func (d *Daemon) stepLocked() {
	active := d.active()
	if len(active) == 0 {
		// Still release whatever the previous round deployed: the last
		// live job may have been cancelled since.
		d.cfg.Cluster.ResetAll()
		d.last = metrics.IntervalStats{}
		d.advanceClockLocked(d.now + d.cfg.Interval)
		d.rounds++
		d.roundsN.Store(int64(d.rounds))
		d.lastRoundWall.Store(time.Now().UnixNano())
		d.flight.Record("engine", obs.SevDebug, "round",
			obs.KI("round", int64(d.rounds)), obs.KI("jobs", 0))
		d.walRoundLocked()
		d.publishClusterLocked()
		return
	}
	d.rounds++
	d.roundsN.Store(int64(d.rounds))
	intervalEnd := d.now + d.cfg.Interval
	d.audit.Stamp(d.rounds, d.now)
	ivSpan := d.tracer.Begin("interval")
	ivStart := time.Now()

	// §3.2 pre-run profiling for jobs on their first round, then the
	// scheduler's estimated views — the round's estimation phase. Only
	// engine-guarded fields are touched; no shard lock needed.
	fitSpan := d.tracer.Begin("fit")
	for _, j := range active {
		if !j.profiled {
			samples := sim.PreRunProfile(j.SpeedEst, j.Spec, preRunSamples,
				d.cfg.SpeedNoise, d.rng)
			j.profiled = true
			if d.walOn() {
				d.walAppend(wal.TypeProfile,
					walProfile{ID: j.Spec.ID, Samples: samples})
			}
		}
	}
	infos := make([]*core.JobInfo, len(active))
	for i, j := range active {
		infos[i] = sim.EstimatedView(d.cfg.Cluster, j.Spec, j.Progress,
			j.LossFit, j.SpeedEst, sim.PriorEpochs, priorityFactor)
	}
	d.tracer.End(fitSpan)

	// Allocate against the cluster's aggregate capacity and place, through
	// the round kernel shared with sim.Run. The placement session rebuilds
	// the cluster from scratch every round, so cancelled jobs' resources are
	// released.
	d.round.Allocate(infos, d.cfg.Cluster.Capacity())
	d.round.Place()

	// Publish the round's §5.4 migration cost on the event stream.
	d.publish(Event{Type: EventRescheduled,
		Detail: fmt.Sprintf("migrated=%d", d.incr.Stats().LastMigrated)})

	// Apply the round's deployments through the shard seams, emitting
	// decision events and charging §5.4 scaling pauses for changed
	// configurations. Each job's deployment swap is one short shard-lock
	// critical section; a job cancelled since the round's active cut is
	// detected here and skipped (its resources were never in this round's
	// placement anyway once the next round rebuilds the cluster).
	deploySpan := d.tracer.Begin("deploy")
	for _, j := range active {
		id := j.Spec.ID
		pl, ok := d.round.Placement(id)
		sh := d.reg.shard(id)
		sh.mu.Lock()
		if j.state.terminal() { // cancelled mid-round
			sh.mu.Unlock()
			continue
		}
		if !ok {
			if j.Placed {
				d.publish(Event{Type: EventUnplaced, Job: id})
			}
			moved := j.Placed || j.state != StateWaiting
			j.Undeploy()
			j.state = StateWaiting
			if moved && d.walOn() {
				d.walAppendDeploy(walDeploy{ID: id, State: StateWaiting})
			}
			sh.mu.Unlock()
			continue
		}
		old := j.Alloc
		fresh, changed := j.Deploy(pl)
		newAlloc := j.Alloc
		j.state = StateRunning
		switch {
		case fresh:
			d.publish(Event{Type: EventPlaced, Job: id, Alloc: &newAlloc,
				Nodes: pl.NodeIDs})
		case changed:
			d.publish(Event{Type: EventScaled, Job: id, Alloc: &newAlloc,
				Nodes: pl.NodeIDs,
				Detail: fmt.Sprintf("%dps/%dw -> %dps/%dw",
					old.PS, old.Workers, newAlloc.PS, newAlloc.Workers)})
		}
		if (fresh || changed) && d.walOn() {
			d.walAppendDeploy(walDeploy{ID: id, State: StateRunning,
				PS: newAlloc.PS, W: newAlloc.Workers, Nodes: pl.NodeIDs})
		}
		sh.mu.Unlock()
		if fresh || changed {
			j.Pause = min(d.cfg.ScalingBase, d.cfg.Interval)
			if changed { // §6.2 counts reconfiguration, not first launch
				d.rec.AddScalingTime(j.Pause)
			}
		}

		// Straggler lifecycle (§5.2): the Optimus policy replaces the slow
		// worker after one detection round. Straggling is engine-guarded, so
		// these stay outside the shard lock.
		if j.Straggling {
			j.Straggling = false
			d.rec.AddRestarts(1)
			d.publish(Event{Type: EventRecovered, Job: id,
				Detail: "straggler replaced"})
			if d.walOn() {
				d.walAppend(wal.TypeFault, walFault{ID: id})
			}
		}
		if d.cfg.StragglerProb > 0 && d.rng.Float64() < d.cfg.StragglerProb {
			j.Straggling = true
			d.rec.AddFault()
			d.publish(Event{Type: EventFault, Job: id,
				Detail: fmt.Sprintf("straggler x%.2f", sim.StragglerSlowdown)})
			if d.walOn() {
				d.walAppend(wal.TypeFault, walFault{ID: id, Straggling: true})
			}
		}
	}

	// Advance one interval of ground-truth training physics. Deployment
	// fields are copied out under the shard lock; the (slow) physics and
	// estimator math runs outside it. A completion commits under the shard
	// lock, unless a cancel got there first.
	for _, j := range active {
		id := j.Spec.ID
		sh := d.reg.shard(id)
		sh.mu.Lock()
		if !j.Placed || j.state.terminal() {
			sh.mu.Unlock()
			continue
		}
		alloc, spread := j.Alloc, j.Spread
		sh.mu.Unlock()

		stepsPerSec := j.Spec.Model.PlacedSpeed(j.Spec.Mode, spread)
		if j.Straggling {
			stepsPerSec *= sim.StragglerSlowdown
		}
		w := j.Advance(d.now, intervalEnd, stepsPerSec)
		if !w.Trained {
			continue
		}
		if !w.Done {
			j.Progress = w.Progress
			d.observe(j, alloc, stepsPerSec)
			continue
		}
		sh.mu.Lock()
		if j.state.terminal() { // cancel raced the completion
			sh.mu.Unlock()
			continue
		}
		d.completeJob(j, w.DoneAt)
		d.publish(Event{Type: EventCompleted, Job: id,
			Detail: fmt.Sprintf("jct=%.0fs", w.DoneAt-j.Spec.Arrival)})
		if d.walOn() {
			d.walAppend(wal.TypeComplete, walComplete{ID: id, DoneAt: w.DoneAt})
		}
		sh.mu.Unlock()
	}

	// Republish every active job's read-mostly status snapshot and digest the
	// round for the last-round gauges in the same shard-lock pass. Jobs that
	// went terminal mid-round already republished in Cancel / the completion
	// branch above, but rebuilding here is harmless (terminal state wins).
	// The round's §3.1 refits run first, in parallel; next round's fit phase
	// reads their caches.
	d.refitLocked(active)
	var stats metrics.IntervalStats
	var usedCPU float64
	for _, j := range active {
		sh := d.reg.shard(j.Spec.ID)
		sh.mu.Lock()
		j.status.Store(newStatusSnap(d.buildStatus(j)))
		switch j.state {
		case StateRunning:
			stats.RunningJobs++
			stats.RunningTasks += j.Alloc.Tasks()
			usedCPU += j.Spec.Model.WorkerRes[cluster.CPU]*float64(j.Alloc.Workers) +
				j.Spec.Model.PSRes[cluster.CPU]*float64(j.Alloc.PS)
		case StatePending, StateWaiting:
			stats.WaitingJobs++
		}
		sh.mu.Unlock()
	}
	if total := d.cfg.Cluster.Capacity()[cluster.CPU]; total > 0 {
		stats.ClusterShare = usedCPU / total
	}
	d.last = stats

	d.tracer.End(deploySpan)
	d.rec.ObserveIntervalDuration(time.Since(ivStart).Seconds())
	if d.tracer.Enabled() {
		d.tracer.Annotate(ivSpan, fmt.Sprintf("round=%d jobs=%d", d.rounds, len(active)))
	}
	d.tracer.End(ivSpan)
	d.advanceClockLocked(intervalEnd)
	d.lastRoundWall.Store(time.Now().UnixNano())
	d.flight.Record("engine", obs.SevDebug, "round",
		obs.KI("round", int64(d.rounds)), obs.KI("jobs", int64(len(active))),
		obs.KI("elapsedUs", time.Since(ivStart).Microseconds()))
	// Commit the interval: one durable round record whose group flush also
	// hardens every buffered engine record above.
	d.walRoundLocked()
	d.publishClusterLocked()
}

// refitLocked runs, in parallel, exactly the loss refits buildStatus would
// run for jobs (its ≥ 5-sample gate), timing each. Callers hold d.mu.
func (d *Daemon) refitLocked(jobs []*job) {
	d.fits = d.fits[:0]
	for _, j := range jobs {
		if j.LossFit.Len() >= 5 {
			d.fits = append(d.fits, j.LossFit)
		}
	}
	lossfit.FitAll(d.fits, d.rec.ObserveRefitDuration)
}

// observe feeds the running job's interval measurements to its estimators.
// alloc is the caller's shard-lock-consistent copy of the job's deployment.
func (d *Daemon) observe(j *job, alloc core.Allocation, stepsPerSec float64) {
	speed, loss := j.Observe(alloc.PS, alloc.Workers, stepsPerSec,
		d.cfg.SpeedNoise, d.cfg.LossNoise, d.rng)
	// The WAL record carries exactly the accepted raw measurements, so
	// replaying it performs the same Observe/Add calls byte-identically.
	if d.walOn() {
		rec := walObserve{ID: j.Spec.ID, Progress: j.Progress}
		if speed > 0 {
			rec.PS, rec.W, rec.Speed = alloc.PS, alloc.Workers, speed
		}
		if loss > 0 {
			rec.K, rec.Loss = j.Progress, loss
		}
		d.walAppendObserve(rec)
	}
}
