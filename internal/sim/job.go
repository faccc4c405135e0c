package sim

import (
	"math/rand"

	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// Job is one training job as both drivers of the control loop keep it — a
// sim.Run replay and the optimusd daemon: its ground truth, its current
// deployment and the §3 estimators fed by its observations. Each driver
// embeds it in its own per-job state and calls these methods from its own
// round loop; the methods touch nothing but the Job and their arguments.
type Job struct {
	Spec        workload.JobSpec
	TotalEpochs float64 // ground-truth epochs to convergence
	Progress    float64 // epochs completed
	DoneAt      float64 // simulated completion time

	// The current deployment.
	Alloc      core.Allocation
	Spread     workload.TaskSpread
	Nodes      []string // IDs of the nodes hosting the deployment
	Placed     bool
	Straggling bool    // a slow worker is degrading the job (§5.2)
	Pause      float64 // this round's §5.4 scaling pause, seconds

	LossFit  *lossfit.Fitter
	SpeedEst *speedfit.Estimator
}

// NewJob returns a fresh, undeployed job for spec with empty estimators.
func NewJob(spec workload.JobSpec) Job {
	return Job{
		Spec:        spec,
		TotalEpochs: spec.TotalEpochs(),
		LossFit:     lossfit.NewFitter(),
		SpeedEst:    speedfit.NewEstimator(spec.Mode, float64(spec.Model.GlobalBatch)),
	}
}

// Deploy makes placement pl the job's deployment and clears Pause. It
// records the tasks actually placed, which a baseline placer may leave
// below the allocation (pending pods). fresh reports a first launch,
// changed a running job moved to another (PS, workers) configuration; the
// caller charges the §5.4 pause for either.
func (j *Job) Deploy(pl core.Placement) (fresh, changed bool) {
	ps, w := pl.Counts()
	a := core.Allocation{PS: ps, Workers: w}
	fresh, changed = !j.Placed, j.Placed && a != j.Alloc
	j.Alloc = a
	j.Spread = workload.TaskSpread{PSOnNode: pl.PSOnNode, WorkersOnNode: pl.WorkersOnNode}
	j.Nodes = pl.NodeIDs
	j.Placed = true
	j.Pause = 0
	return fresh, changed
}

// Undeploy tears the job's deployment down. It leaves Pause alone; the next
// Deploy clears it.
func (j *Job) Undeploy() {
	j.Alloc = core.Allocation{}
	j.Spread = workload.TaskSpread{}
	j.Nodes = nil
	j.Placed = false
}

// Window is the outcome of one Advance.
type Window struct {
	Rate     float64 // epochs/s at the window's speed
	Trained  bool    // the pause ended inside the window and Rate > 0
	Progress float64 // epochs completed at the window's end
	Done     bool    // the job converged inside the window
	DoneAt   float64 // when it converged, if Done
}

// Advance computes one window [t0, t1) of training at stepsPerSec: the job
// trains from t0+Pause until t1 or until it converges, whichever is first.
// A pause that fills the window, or a zero rate, gains nothing. Advance
// does not change the job; the caller commits the result.
func (j *Job) Advance(t0, t1, stepsPerSec float64) Window {
	w := Window{Rate: EpochsPerSecond(j.Spec, stepsPerSec), Progress: j.Progress}
	start := t0 + j.Pause
	if start >= t1 || w.Rate <= 0 {
		return w
	}
	w.Trained = true
	remaining := j.TotalEpochs - j.Progress
	if gained := w.Rate * (t1 - start); gained < remaining {
		w.Progress += gained
	} else {
		w.Progress, w.Done, w.DoneAt = j.TotalEpochs, true, start+remaining/w.Rate
	}
	return w
}

// Measure draws one interval's noisy measurements of a job trained at
// stepsPerSec up to progress epochs: a speed when stepsPerSec > 0 and a loss
// at progress when progress > 0, each drawing one rng.NormFloat64. A half
// not measured, or drawn nonpositive, is zero. Measure does not change the
// job; Observe feeds what it drew to the estimators, so a durability layer
// can log the draw in between and replay the same Observe (DESIGN.md §17).
func (j *Job) Measure(progress, stepsPerSec, speedNoise, lossNoise float64, rng *rand.Rand) (speed, loss float64) {
	if stepsPerSec > 0 {
		speed = max(stepsPerSec*(1+speedNoise*rng.NormFloat64()), 0)
	}
	if progress > 0 {
		loss = max(j.Spec.Model.TrueLoss(progress)*(1+lossNoise*rng.NormFloat64()), 0)
	}
	return speed, loss
}

// Observe feeds the estimators one interval's measurements: a speed on ps
// parameter servers and w workers, and a loss at k epochs. A zero half is
// skipped. The estimators draw nothing and reject only invalid input, so
// the same arguments always change them the same way.
func (j *Job) Observe(ps, w int, speed, k, loss float64) {
	if speed > 0 {
		_ = j.SpeedEst.Observe(ps, w, speed)
	}
	if loss > 0 {
		_ = j.LossFit.Add(k, loss)
	}
}
