package operator

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"optimus/internal/chaos"
	"optimus/internal/psys"
)

// Fault injection against the live backend. The same chaos.Fault vocabulary
// the simulator replays is applied here to real components:
//
//   - Straggler / NetworkSlow degrade worker step times in place (the §5.2
//     detector then replaces stragglers autonomously). Live injections have
//     no timer: they persist until the worker is replaced or the job's next
//     checkpoint/restart incarnation, which always starts healthy.
//   - TaskKill / NodeCrash tear down the affected incarnations and recover
//     them from a checkpoint taken at kill time (worker state is lost, server
//     parameter state survives — §5.4). A NodeCrash first drains the node so
//     the control plane re-places the pods elsewhere.
//   - CheckpointFail arms a one-shot checkpoint-write failure; if a kill
//     lands before the next successful write the job cold-restarts and its
//     progress is counted as wasted.
//   - RecoveryDelay stretches the affected job's next recovery.
type FaultStats struct {
	Injected           int
	Restarts           int // tasks restarted by kill/crash recovery
	CheckpointFailures int
	WastedSteps        int // training steps lost to cold restarts
}

// FaultStats reports the operator's fault-injection counters.
func (o *Operator) FaultStats() FaultStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.faults
}

// InjectFault applies one chaos fault to the running system. Unknown jobs and
// already-completed jobs make the injection a recorded no-op, mirroring the
// simulator's late-delivery semantics.
func (o *Operator) InjectFault(f chaos.Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	o.mu.Lock()
	o.faults.Injected++
	o.mu.Unlock()

	switch f.Kind {
	case chaos.Straggler:
		mj := o.lookup(f.Job)
		if mj == nil {
			return nil
		}
		return o.degradeWorker(mj, f.Task, stragglerDelay(f.Severity))
	case chaos.NetworkSlow:
		for _, mj := range o.managed() {
			mj.mu.Lock()
			job, workers := mj.job, mj.alloc.Workers
			mj.mu.Unlock()
			if job == nil {
				continue
			}
			for id := 0; id < workers; id++ {
				_ = job.InjectWorkerDelay(id, stragglerDelay(f.Severity))
			}
		}
		return nil
	case chaos.TaskKill:
		mj := o.lookup(f.Job)
		if mj == nil {
			return nil
		}
		return o.killAndRecover(mj)
	case chaos.NodeCrash:
		return o.crashNode(f.Node)
	case chaos.CheckpointFail:
		mj := o.lookup(f.Job)
		if mj == nil {
			return nil
		}
		mj.mu.Lock()
		job := mj.job
		mj.mu.Unlock()
		if job != nil {
			job.FailNextCheckpoint()
		}
		return nil
	case chaos.RecoveryDelay:
		mj := o.lookup(f.Job)
		if mj == nil {
			return nil
		}
		mj.mu.Lock()
		mj.restoreDelay += time.Duration(f.Duration * float64(time.Second))
		mj.mu.Unlock()
		return nil
	}
	return fmt.Errorf("operator: unsupported fault kind %v", f.Kind)
}

// stragglerDelay converts a chaos severity (fraction of healthy speed) into a
// per-step delay large enough for §5.2 detection: healthy steps on the tiny
// test models take microseconds, so single-digit milliseconds dominate.
func stragglerDelay(severity float64) time.Duration {
	if severity <= 0 || severity >= 1 {
		return 3 * time.Millisecond
	}
	return time.Duration((1 - severity) * float64(8*time.Millisecond))
}

// lookup returns the managed job, or nil when unknown or completed.
func (o *Operator) lookup(id int) *managedJob {
	o.mu.Lock()
	defer o.mu.Unlock()
	mj := o.jobs[id]
	if mj == nil || mj.completed {
		return nil
	}
	return mj
}

// managed returns all incomplete jobs.
func (o *Operator) managed() []*managedJob {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*managedJob, 0, len(o.jobs))
	for _, mj := range o.jobs {
		if !mj.completed {
			out = append(out, mj)
		}
	}
	return out
}

// degradeWorker injects per-step slowness into one of the job's workers.
func (o *Operator) degradeWorker(mj *managedJob, workerID int, d time.Duration) error {
	mj.mu.Lock()
	job := mj.job
	mj.mu.Unlock()
	if job == nil {
		return nil
	}
	if err := job.InjectWorkerDelay(workerID, d); err != nil {
		return fmt.Errorf("operator: degrade job %d: %w", mj.req.ID, err)
	}
	return nil
}

// killAndRecover tears down a job's incarnation and restarts it at the same
// allocation from a checkpoint taken at kill time. If the checkpoint write
// fails (an armed CheckpointFail), the job cold-restarts from scratch and the
// lost steps are counted as wasted work.
func (o *Operator) killAndRecover(mj *managedJob) error {
	mj.mu.Lock()
	job, alloc := mj.job, mj.alloc
	steps := mj.totalSteps
	delay := mj.restoreDelay
	mj.restoreDelay = 0
	mj.mu.Unlock()
	if job == nil {
		return nil
	}

	ckpt := filepath.Join(o.ckptDir, fmt.Sprintf("job-%d.recovery.ckpt", mj.req.ID))
	var params []float64
	ckptFailed := false
	if err := job.SaveCheckpoint(ckpt); err != nil {
		if !errors.Is(err, psys.ErrCheckpointFailed) {
			return fmt.Errorf("operator: recovery checkpoint job %d: %w", mj.req.ID, err)
		}
		ckptFailed = true
	} else {
		ck, err := psys.LoadCheckpoint(ckpt)
		os.Remove(ckpt)
		if err != nil {
			return fmt.Errorf("operator: recovery restore job %d: %w", mj.req.ID, err)
		}
		params = ck.Params
	}

	o.stopIncarnation(mj)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err := o.startIncarnation(mj, alloc, params); err != nil {
		return fmt.Errorf("operator: restart job %d: %w", mj.req.ID, err)
	}

	o.mu.Lock()
	o.faults.Restarts += alloc.Tasks()
	if ckptFailed {
		o.faults.CheckpointFailures++
		o.faults.WastedSteps += steps
	}
	o.mu.Unlock()
	if ckptFailed {
		// Progress restarts from zero: reset the counters the convergence
		// check and loss fitter key off so telemetry stays consistent.
		mj.mu.Lock()
		mj.totalSteps = 0
		mj.mu.Unlock()
	}
	return nil
}

// crashNode drains the node on the control plane and recovers every job that
// had tasks placed there; the next Cycle's round re-places the drained pods.
func (o *Operator) crashNode(node string) error {
	affected := make(map[int]bool)
	for _, p := range o.api.ListPods() {
		if p.NodeName == node {
			affected[p.JobID] = true
		}
	}
	if err := o.api.DrainNode(node); err != nil {
		return fmt.Errorf("operator: crash node %s: %w", node, err)
	}
	for id := range affected {
		mj := o.lookup(id)
		if mj == nil {
			continue
		}
		if err := o.killAndRecover(mj); err != nil {
			return err
		}
	}
	return nil
}
