// Package operator is the full Optimus control loop running against real
// components — the closed-loop system of §5.5: training jobs execute on the
// psys parameter-server framework, their live telemetry (losses, measured
// step rates) feeds the §3 estimators, the §4.1 marginal-gain allocator
// and §4.2 placer decide each job's (PS, workers) and nodes every scheduling
// interval through sim.Round, the round sim.Run and optimusd run, resizes
// happen via §5.4 checkpoint/restart, and each job's pod group on the kube
// control plane is bound where the round placed it.
//
// Nothing here is simulated: the losses come from SGD on real data, speeds
// from wall-clock measurements, and convergence from the job owner's
// threshold applied to observed loss windows.
package operator

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/kube"
	"optimus/internal/lossfit"
	"optimus/internal/metrics"
	"optimus/internal/psys"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
)

// JobRequest is what a job owner submits: the training task plus the
// convergence threshold and per-task resource profiles (§2.3: the owner
// fixes the composition of each task; Optimus decides the counts).
type JobRequest struct {
	ID        int
	ModelSpec string // psys.ModelFromSpec format
	Examples  int
	Noise     float64
	Mode      speedfit.Mode
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      int64
	// Threshold: the job converges when the mean batch loss improves by
	// less than Threshold (relative to the first window) for three
	// consecutive windows.
	Threshold float64
	PSRes     cluster.Resources
	WorkerRes cluster.Resources
	// WorkerDelays injects per-worker slowness (straggler demos/tests).
	WorkerDelays map[int]time.Duration
}

func (r JobRequest) validate() error {
	switch {
	case r.Examples <= 0:
		return fmt.Errorf("operator: job %d: invalid dataset size", r.ID)
	case r.BatchSize <= 0 || r.LR <= 0:
		return fmt.Errorf("operator: job %d: invalid hyperparameters", r.ID)
	case r.Threshold <= 0:
		return fmt.Errorf("operator: job %d: invalid threshold", r.ID)
	}
	_, err := psys.ModelFromSpec(r.ModelSpec)
	return err
}

// managedJob is the operator's per-job state.
type managedJob struct {
	req  JobRequest
	data psys.Batch

	mu        sync.Mutex
	job       *psys.Job
	alloc     core.Allocation
	driveStop chan struct{}
	driveDone chan struct{}

	// live telemetry, appended by the driver goroutine
	totalSteps  int
	lossSum     float64
	lossN       int
	lastRate    float64 // measured steps/s at the current configuration
	replaced    int     // §5.2 straggler replacements performed
	windowLoss  []float64
	firstWindow float64
	flatWindows int
	completed   bool
	completedAt time.Time
	// restoreDelay stretches the next fault recovery (chaos RecoveryDelay).
	restoreDelay time.Duration

	fitter   *lossfit.Fitter
	speedEst *speedfit.Estimator
}

// Operator owns the scheduling loop.
type Operator struct {
	api     *kube.APIServer
	jc      *kube.JobController
	policy  sim.Policy
	rec     *metrics.Recorder // the round's latencies; WritePrometheus reads them
	ckptDir string

	mu     sync.Mutex
	jobs   map[int]*managedJob
	faults FaultStats
}

// New builds an operator against a kube control plane. Checkpoints for
// elastic rescaling are written under ckptDir.
func New(api *kube.APIServer, ckptDir string) *Operator {
	return &Operator{
		api:     api,
		jc:      kube.NewJobController(api),
		policy:  sim.OptimusPolicy(),
		rec:     metrics.NewRecorder(),
		ckptDir: ckptDir,
		jobs:    make(map[int]*managedJob),
	}
}

// Submit admits a job: generates its dataset, starts it at the starvation
// floor of one PS + one worker (§4.1), registers the pod group and drives
// training in the background.
func (o *Operator) Submit(req JobRequest) error {
	if err := req.validate(); err != nil {
		return err
	}
	o.mu.Lock()
	if _, dup := o.jobs[req.ID]; dup {
		o.mu.Unlock()
		return fmt.Errorf("operator: job %d already submitted", req.ID)
	}
	o.mu.Unlock()

	mj, err := newManagedJob(req)
	if err != nil {
		return err
	}
	return o.launch(mj, core.Allocation{PS: 1, Workers: 1}, nil)
}

// launch starts mj at alloc from params, then registers its pod group and mj.
func (o *Operator) launch(mj *managedJob, alloc core.Allocation, params []float64) error {
	if err := o.startIncarnation(mj, alloc, params); err != nil {
		return err
	}
	if err := o.jc.Submit(kube.TrainingJob{
		ID: mj.req.ID, PS: alloc.PS, Workers: alloc.Workers,
		PSRes: mj.req.PSRes, WorkerRes: mj.req.WorkerRes,
	}); err != nil {
		o.stopIncarnation(mj)
		return err
	}
	o.mu.Lock()
	o.jobs[mj.req.ID] = mj
	o.mu.Unlock()
	return nil
}

// newManagedJob builds the in-memory job state: deterministic dataset plus
// fresh estimators.
func newManagedJob(req JobRequest) (*managedJob, error) {
	model, err := psys.ModelFromSpec(req.ModelSpec)
	if err != nil {
		return nil, err
	}
	data, err := psys.SyntheticData(model, req.Examples, req.Noise, req.Seed)
	if err != nil {
		return nil, err
	}
	return &managedJob{
		req: req, data: data,
		fitter:   lossfit.NewFitter(),
		speedEst: speedfit.NewEstimator(req.Mode, float64(req.BatchSize)),
	}, nil
}

// startIncarnation launches (or relaunches) the psys job at the given shape
// and starts its background driver.
func (o *Operator) startIncarnation(mj *managedJob, alloc core.Allocation, initParams []float64) error {
	model, err := psys.ModelFromSpec(mj.req.ModelSpec)
	if err != nil {
		return err
	}
	job, err := psys.StartJob(psys.JobConfig{
		Model: model, Data: mj.data, Mode: mj.req.Mode,
		Workers: alloc.Workers, Servers: alloc.PS,
		BatchSize: mj.req.BatchSize, LR: mj.req.LR, Momentum: mj.req.Momentum,
		Seed: mj.req.Seed, InitParams: initParams,
		WorkerDelays: mj.req.WorkerDelays,
	})
	if err != nil {
		return err
	}
	mj.mu.Lock()
	mj.job = job
	mj.alloc = alloc
	mj.driveStop = make(chan struct{})
	mj.driveDone = make(chan struct{})
	stop, done := mj.driveStop, mj.driveDone
	mj.mu.Unlock()
	go o.drive(mj, job, alloc, stop, done)
	return nil
}

// drive runs the job in small step batches, accumulating telemetry, until
// told to stop.
func (o *Operator) drive(mj *managedJob, job *psys.Job, alloc core.Allocation, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	const batchSteps = 10
	for {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		stats, err := job.RunSteps(batchSteps)
		if err != nil {
			return // job torn down (rescale or completion)
		}
		elapsed := time.Since(start).Seconds()
		var lossSum float64
		for _, s := range stats {
			lossSum += s.Loss
		}
		rate := float64(batchSteps) / elapsed
		if mj.req.Mode == speedfit.Async {
			// Aggregate async speed counts every worker's steps.
			rate = float64(batchSteps*alloc.Workers) / elapsed
		}
		mj.mu.Lock()
		mj.totalSteps += batchSteps
		mj.lossSum += lossSum / float64(len(stats))
		mj.lossN++
		mj.lastRate = rate
		mj.mu.Unlock()

		// §5.2: between step batches no steps are in flight, so the driver
		// can detect stragglers from gradient-production times and replace
		// them autonomously.
		if alloc.Workers > 1 && len(stats) >= alloc.Workers*batchSteps {
			for _, id := range psys.DetectStragglers(stats) {
				if err := job.ReplaceWorker(id); err != nil {
					return
				}
				mj.mu.Lock()
				mj.replaced++
				mj.mu.Unlock()
			}
		}
	}
}

// stopIncarnation halts the driver and tears the psys job down.
func (o *Operator) stopIncarnation(mj *managedJob) {
	mj.mu.Lock()
	stop, done, job := mj.driveStop, mj.driveDone, mj.job
	mj.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if job != nil {
		job.Stop() // unblocks a RunSteps in flight
	}
	if done != nil {
		<-done
	}
}

// CycleReport summarizes one scheduling interval.
type CycleReport struct {
	Active    int
	Completed []int
	Resized   []int // jobs checkpoint-restarted to their placed shape
	Bound     int   // pods bound
}

// Cycle runs one scheduling interval: harvest telemetry, refresh the §3
// models, run the round sim.Run and optimusd run over the control plane's
// nodes, and apply it (DESIGN.md §12 states the rules). It is not safe for
// concurrent use.
func (o *Operator) Cycle() (CycleReport, error) {
	jobs := o.managed()
	report := CycleReport{Active: len(jobs)}

	// 1. Telemetry → estimators, convergence check.
	byID := make(map[int]*managedJob, len(jobs))
	var fits []*lossfit.Fitter
	for _, mj := range jobs {
		mj.mu.Lock()
		var window float64
		if mj.lossN > 0 {
			window = mj.lossSum / float64(mj.lossN)
			mj.lossSum, mj.lossN = 0, 0
			mj.windowLoss = append(mj.windowLoss, window)
			if len(mj.windowLoss) == 1 {
				mj.firstWindow = window
			}
			_ = mj.fitter.Add(float64(mj.totalSteps), window)
			if mj.lastRate > 0 {
				_ = mj.speedEst.Observe(mj.alloc.PS, mj.alloc.Workers, mj.lastRate)
			}
		}
		// Convergence: the decrease between consecutive windows stays below
		// threshold·firstWindow for 3 windows (§2.1's rule on live loss).
		n := len(mj.windowLoss)
		if n >= 2 && mj.firstWindow > 0 {
			dec := mj.windowLoss[n-2] - mj.windowLoss[n-1]
			if dec < mj.req.Threshold*mj.firstWindow {
				mj.flatWindows++
			} else {
				mj.flatWindows = 0
			}
		}
		converged := mj.flatWindows >= 3
		mj.mu.Unlock()

		if converged {
			o.complete(mj)
			report.Completed = append(report.Completed, mj.req.ID)
			continue
		}
		byID[mj.req.ID] = mj
		if mj.fitter.Len() >= 5 {
			fits = append(fits, mj.fitter)
		}
	}
	if len(byID) == 0 {
		return report, nil
	}

	// 2. The round. Only Cycle touches the fitters, so one batch refits them
	// all, as in sim and optimusd, and viewOf reads the cached fits.
	lossfit.FitAll(fits, o.rec.ObserveRefitDuration)
	infos := make([]*core.JobInfo, 0, len(byID))
	for _, mj := range byID {
		infos = append(infos, o.viewOf(mj))
	}
	c := cluster.New() // each node's capacity less the live pods of jobs outside the round
	for _, n := range o.api.ListNodes() {
		_ = c.AddNode(cluster.NewNode(n.Name, n.Capacity)) // names are unique
	}
	for _, p := range o.api.ListPods() {
		if n := c.Node(p.NodeName); n != nil && byID[p.JobID] == nil {
			n.Capacity = n.Capacity.Sub(p.Resources)
		}
	}
	round := sim.NewRound(o.policy, c, nil, nil, nil, o.rec)
	round.Allocate(infos, c.Capacity())
	round.Place()

	// 3. Resize each placed job whose shape changed, then apply the placement.
	place := make(map[int]core.Placement, len(byID))
	for id, mj := range byID {
		pl, _ := round.Placement(id) // the zero Placement if unplaced
		ps, workers := pl.Counts()
		mj.mu.Lock()
		cur := mj.alloc
		mj.mu.Unlock()
		if next := (core.Allocation{PS: ps, Workers: workers}); ps > 0 && next != cur {
			resized, err := o.resize(mj, next)
			if err != nil {
				return report, fmt.Errorf("operator: resize job %d: %w", id, err)
			}
			if !resized {
				continue // the old incarnation's pods wait pending
			}
			report.Resized = append(report.Resized, id)
		}
		place[id] = pl
	}
	bound, err := o.jc.Apply(place)
	report.Bound = bound
	return report, err
}

// viewOf builds the scheduler's JobInfo from live estimates.
func (o *Operator) viewOf(mj *managedJob) *core.JobInfo {
	mj.mu.Lock()
	defer mj.mu.Unlock()
	info := &core.JobInfo{
		ID:        mj.req.ID,
		WorkerRes: mj.req.WorkerRes,
		PSRes:     mj.req.PSRes,
		// Real clusters cap task counts well below the batch size.
		MaxWorkers: 16,
		MaxPS:      16,
	}
	// Remaining work Q from the online loss fit; fall back to a prior when
	// the fit is not ready (the §4.1 beginning state).
	remaining := 500.0 // prior steps
	if mj.fitter.Len() >= 5 {
		if m, err := mj.fitter.Fit(); err == nil {
			if total, err := m.StepsToConverge(mj.req.Threshold, 10, 3); err == nil {
				if r := total - float64(mj.totalSteps); r > 1 {
					remaining = r
				} else {
					remaining = 1
				}
			}
		}
		info.Priority = 1.0
	} else {
		info.Priority = 0.95 // damp beginning-state jobs
	}
	info.RemainingWork = remaining

	if model, err := mj.speedEst.Fit(); err == nil {
		info.Speed = model.Speed
	} else {
		// Too few configurations observed: scale the measured rate by a
		// conservative linear model so the allocator can still reason.
		rate, p, w := mj.lastRate, mj.alloc.PS, mj.alloc.Workers
		if rate <= 0 {
			rate = 1
		}
		info.Speed = func(np, nw int) float64 {
			if np < 1 || nw < 1 {
				return 0
			}
			scale := float64(nw) / float64(w)
			if np < p {
				scale *= float64(np) / float64(p)
			}
			return rate * scale * 0.9
		}
	}
	return info
}

// resize performs the §5.4 checkpoint/restart at next. It reports false when
// an injected checkpoint-write failure keeps the current incarnation.
func (o *Operator) resize(mj *managedJob, next core.Allocation) (bool, error) {
	mj.mu.Lock()
	job := mj.job
	mj.mu.Unlock()

	ckpt := filepath.Join(o.ckptDir, fmt.Sprintf("job-%d.ckpt", mj.req.ID))
	if err := job.SaveCheckpoint(ckpt); err != nil {
		if errors.Is(err, psys.ErrCheckpointFailed) {
			o.mu.Lock()
			o.faults.CheckpointFailures++
			o.mu.Unlock()
			return false, nil
		}
		return false, err
	}
	defer os.Remove(ckpt)
	ck, err := psys.LoadCheckpoint(ckpt)
	if err != nil {
		return false, err
	}
	o.stopIncarnation(mj)
	if err := o.startIncarnation(mj, next, ck.Params); err != nil {
		return false, err
	}
	return true, nil
}

// complete tears a converged job down and removes its pods.
func (o *Operator) complete(mj *managedJob) {
	o.stopIncarnation(mj)
	_ = o.jc.Delete(mj.req.ID) // pods may already be gone on shutdown races
	mj.mu.Lock()
	mj.completed = true
	mj.completedAt = time.Now()
	mj.mu.Unlock()
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID        int
	Completed bool
	Steps     int
	PS        int
	Workers   int
	LastLoss  float64
	// Replaced counts §5.2 straggler replacements over the job's lifetime.
	Replaced int
}

// Status reports all jobs.
func (o *Operator) Status() []JobStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]JobStatus, 0, len(o.jobs))
	for _, mj := range o.jobs {
		mj.mu.Lock()
		st := JobStatus{
			ID: mj.req.ID, Completed: mj.completed,
			Steps: mj.totalSteps, PS: mj.alloc.PS, Workers: mj.alloc.Workers,
			Replaced: mj.replaced,
		}
		if n := len(mj.windowLoss); n > 0 {
			st.LastLoss = mj.windowLoss[n-1]
		}
		mj.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Shutdown stops every job and driver.
func (o *Operator) Shutdown() {
	for _, mj := range o.managed() {
		o.stopIncarnation(mj)
	}
}
