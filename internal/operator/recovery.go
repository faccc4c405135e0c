package operator

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"optimus/internal/core"
)

// §5.5 fault tolerance: "we use etcd as fault-tolerant storage of job
// states. Kubernetes will automatically restart the scheduler if it fails."
// SaveState persists everything a restarted operator needs — each job's
// request, allocation, progress counters and model parameters — and Recover
// rebuilds a running operator from it. Estimator state is deliberately not
// persisted: a restarted Optimus re-learns its models from fresh telemetry,
// exactly as the paper's restarts do.

// persistedJob is the durable state of one managed job.
type persistedJob struct {
	Req         JobRequest
	Alloc       core.Allocation
	TotalSteps  int
	Replaced    int
	WindowLoss  []float64
	FirstWindow float64
	FlatWindows int
	Completed   bool
	Params      []float64
}

type persistedState struct {
	Jobs []persistedJob
}

// SaveState writes the operator's job state to path. Running jobs are
// checkpointed in place (their training continues uninterrupted).
func (o *Operator) SaveState(path string) error {
	o.mu.Lock()
	jobs := make([]*managedJob, 0, len(o.jobs))
	for _, mj := range o.jobs {
		jobs = append(jobs, mj)
	}
	o.mu.Unlock()

	var st persistedState
	for _, mj := range jobs {
		mj.mu.Lock()
		pj := persistedJob{
			Req:         mj.req,
			Alloc:       mj.alloc,
			TotalSteps:  mj.totalSteps,
			Replaced:    mj.replaced,
			WindowLoss:  append([]float64(nil), mj.windowLoss...),
			FirstWindow: mj.firstWindow,
			FlatWindows: mj.flatWindows,
			Completed:   mj.completed,
		}
		job := mj.job
		mj.mu.Unlock()
		if !pj.Completed && job != nil {
			params, err := job.Params()
			if err != nil {
				return fmt.Errorf("operator: snapshot job %d: %w", pj.Req.ID, err)
			}
			pj.Params = params
		}
		st.Jobs = append(st.Jobs, pj)
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("operator: save state: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(&st); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("operator: encode state: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// RecoverInto loads a saved state into a freshly constructed Operator:
// incomplete jobs restart from their persisted parameters at their last
// allocation, pod groups are re-registered on the control plane, and
// completed jobs are remembered as completed.
// The operator must be empty (no jobs submitted yet).
func (o *Operator) RecoverInto(path string) error {
	o.mu.Lock()
	if len(o.jobs) != 0 {
		o.mu.Unlock()
		return fmt.Errorf("operator: recovery target already has jobs")
	}
	o.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("operator: open state: %w", err)
	}
	defer f.Close()
	var st persistedState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return fmt.Errorf("operator: decode state: %w", err)
	}

	for _, pj := range st.Jobs {
		if err := o.recoverJob(pj); err != nil {
			return err
		}
	}
	return nil
}

func (o *Operator) recoverJob(pj persistedJob) error {
	if pj.Completed {
		mj := &managedJob{req: pj.Req, completed: true}
		mj.totalSteps = pj.TotalSteps
		mj.replaced = pj.Replaced
		o.mu.Lock()
		o.jobs[pj.Req.ID] = mj
		o.mu.Unlock()
		return nil
	}
	if err := pj.Req.validate(); err != nil {
		return err
	}
	// Rebuild the dataset deterministically, then restart training from the
	// persisted parameters at the persisted allocation.
	mj, err := o.rebuildManaged(pj)
	if err != nil {
		return err
	}
	alloc := pj.Alloc
	if alloc.PS < 1 || alloc.Workers < 1 {
		alloc = core.Allocation{PS: 1, Workers: 1}
	}
	return o.launch(mj, alloc, pj.Params)
}

// rebuildManaged reconstructs the in-memory job state (dataset, estimators,
// counters) from the persisted record.
func (o *Operator) rebuildManaged(pj persistedJob) (*managedJob, error) {
	mj, err := newManagedJob(pj.Req)
	if err != nil {
		return nil, err
	}
	mj.totalSteps = pj.TotalSteps
	mj.replaced = pj.Replaced
	mj.windowLoss = append([]float64(nil), pj.WindowLoss...)
	mj.firstWindow = pj.FirstWindow
	mj.flatWindows = pj.FlatWindows
	return mj, nil
}

// StateFileName is the conventional state path under a directory.
func StateFileName(dir string) string { return filepath.Join(dir, "operator-state.gob") }
