package serve

import (
	"fmt"
	"slices"
	"time"

	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/wal"
	"optimus/internal/workload"
)

// Step executes one scheduling round: profile newly admitted jobs, rebuild
// the scheduler's estimated views, re-run §4.1 allocation and §4.2
// placement against the whole cluster through the round kernel sim.Run
// also runs (sim.Round), then deploy, advance and observe each job: Advance
// it by one interval of the ground-truth physics and Measure it through the
// sim.Job methods sim.Run also calls, and change its recorded state through
// the WAL apply functions replay runs (wal.go). Around those calls Step adds
// what only the daemon has: shard locks, lifecycle states, SSE events and
// WAL records. It is the live equivalent of one iteration of sim.Run's
// interval loop and is safe to call concurrently with the HTTP handlers.
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
	p := walRound{Round: d.rounds + 1, SimTime: d.now + d.cfg.Interval}
	var err error
	if active := d.active(); len(active) > 0 {
		err = d.intervalLocked(active, p)
	} else {
		// Still release whatever the previous round deployed: the last
		// live job may have been cancelled since.
		d.cfg.Cluster.ResetAll()
		d.flight.Record("engine", obs.SevDebug, "round",
			obs.KI("round", int64(p.Round)), obs.KI("jobs", 0))
		err = d.walAppendDurable(wal.TypeRound, p)
		d.applyRound(p, nil)
	}
	d.lastRoundWall.Store(time.Now().UnixNano())
	n, l := d.cfg.WALCheckpointRounds, d.wlog.Load()
	if err == nil && l != nil && n > 0 && p.Round%n == 0 {
		d.walCheckpointLocked(l)
	}
}

// intervalLocked runs scheduling round p over the active jobs and commits
// it. Every change to a job's recorded state follows one rule: build the
// WAL payload, append it, then apply it with the applyX function replay
// runs too (wal.go).
func (d *Daemon) intervalLocked(active []*job, p walRound) error {
	d.audit.Stamp(p.Round, d.now)
	ivSpan := d.tracer.Begin("interval")
	ivStart := time.Now()

	// §3.2 pre-run profiling for jobs on their first round, then the
	// scheduler's estimated views — the round's estimation phase. Only
	// engine-guarded fields are touched; no shard lock needed.
	fitSpan := d.tracer.Begin("fit")
	for _, j := range active {
		if !j.profiled {
			pr := walProfile{ID: j.Spec.ID,
				Samples: sim.ProfileSamples(j.Spec, preRunSamples, d.cfg.SpeedNoise, d.rng)}
			d.walAppend(wal.TypeProfile, pr)
			d.applyProfile(j, pr)
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
	// placement anyway once the next round rebuilds the cluster). A deploy
	// record is written whenever the job's nodes change, so a follower
	// serves the leader's nodes.
	deploySpan := d.tracer.Begin("deploy")
	for _, j := range active {
		id := j.Spec.ID
		pl, ok := d.round.Placement(id)
		dp := walDeploy{ID: id, State: StateWaiting}
		if ok {
			dp.State, dp.Nodes = StateRunning, pl.NodeIDs
			dp.PS, dp.W = pl.Counts()
		}
		a := core.Allocation{PS: dp.PS, Workers: dp.W}
		sh := d.reg.shard(id)
		sh.mu.Lock()
		if j.state.terminal() { // cancelled mid-round
			sh.mu.Unlock()
			continue
		}
		old, wasPlaced := j.Alloc, j.Placed
		if j.state != dp.State || old != a || !slices.Equal(j.Nodes, dp.Nodes) {
			d.walAppendDeploy(dp)
		}
		// Applied when unchanged too, so the job drops its reference to an
		// older round's node-ID arena.
		d.applyDeploy(j, dp)
		fresh, changed := ok && !wasPlaced, ok && wasPlaced && old != a
		switch {
		case !ok && wasPlaced:
			d.publish(Event{Type: EventUnplaced, Job: id})
		case fresh:
			d.publish(Event{Type: EventPlaced, Job: id, Alloc: &a, Nodes: pl.NodeIDs})
		case changed:
			d.publish(Event{Type: EventScaled, Job: id, Alloc: &a, Nodes: pl.NodeIDs,
				Detail: fmt.Sprintf("%dps/%dw -> %dps/%dw", old.PS, old.Workers, a.PS, a.Workers)})
		}
		if ok {
			j.Spread = workload.TaskSpread{PSOnNode: pl.PSOnNode, WorkersOnNode: pl.WorkersOnNode}
		}
		sh.mu.Unlock()
		if !ok {
			continue
		}
		j.Pause = 0
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
			d.rec.AddRestarts(1)
			d.publish(Event{Type: EventRecovered, Job: id,
				Detail: "straggler replaced"})
			f := walFault{ID: id}
			d.walAppend(wal.TypeFault, f)
			d.applyFault(j, f)
		}
		if d.cfg.StragglerProb > 0 && d.rng.Float64() < d.cfg.StragglerProb {
			d.rec.AddFault()
			d.publish(Event{Type: EventFault, Job: id,
				Detail: fmt.Sprintf("straggler x%.2f", sim.StragglerSlowdown)})
			f := walFault{ID: id, Straggling: true}
			d.walAppend(wal.TypeFault, f)
			d.applyFault(j, f)
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
		w := j.Advance(d.now, p.SimTime, stepsPerSec)
		if !w.Trained {
			continue
		}
		if !w.Done {
			speed, loss := j.Measure(w.Progress, stepsPerSec, d.cfg.SpeedNoise, d.cfg.LossNoise, d.rng)
			ob := walObserve{ID: id, Progress: w.Progress}
			if speed > 0 {
				ob.PS, ob.W, ob.Speed = alloc.PS, alloc.Workers, speed
			}
			if loss > 0 {
				ob.K, ob.Loss = w.Progress, loss
			}
			d.walAppendObserve(ob)
			d.applyObserve(j, ob)
			continue
		}
		sh.mu.Lock()
		if j.state.terminal() { // cancel raced the completion
			sh.mu.Unlock()
			continue
		}
		c := walComplete{ID: id, DoneAt: w.DoneAt}
		d.walAppend(wal.TypeComplete, c)
		d.applyComplete(j, c)
		d.publish(Event{Type: EventCompleted, Job: id,
			Detail: fmt.Sprintf("jct=%.0fs", w.DoneAt-j.Spec.Arrival)})
		sh.mu.Unlock()
	}

	// Commit the interval: one durable round record, whose group flush also
	// hardens every record above, then its apply, which refits the active
	// jobs' loss curves in parallel (next round's fit phase reads their
	// caches) and republishes their statuses. Jobs that went terminal
	// mid-round republished already, but rebuilding is harmless (terminal
	// state wins).
	err := d.walAppendDurable(wal.TypeRound, p)
	d.applyRound(p, active)
	d.tracer.End(deploySpan)
	d.rec.ObserveIntervalDuration(time.Since(ivStart).Seconds())
	if d.tracer.Enabled() {
		d.tracer.Annotate(ivSpan, fmt.Sprintf("round=%d jobs=%d", p.Round, len(active)))
	}
	d.tracer.End(ivSpan)
	d.flight.Record("engine", obs.SevDebug, "round",
		obs.KI("round", int64(p.Round)), obs.KI("jobs", int64(len(active))),
		obs.KI("elapsedUs", time.Since(ivStart).Microseconds()))
	return err
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
