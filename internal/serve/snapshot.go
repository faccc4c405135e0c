package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"optimus/internal/core"
	"optimus/internal/sim"
)

// SnapshotVersion is the format version of the daemon's state snapshot, the
// payload of every WAL checkpoint. Version 2 stores the speed estimator's
// exact accumulators (SpeedAcc); it is the only version read.
const SnapshotVersion = 2

// Snapshot is the daemon's durable state: everything needed to resume every
// job with its progress, fitted model state and last allocation intact. The
// cluster's node-level bookkeeping is deliberately absent — it is rebuilt
// from live placements on the first scheduling round after restore, exactly
// as it is on every ordinary round.
type Snapshot struct {
	Version   int           `json:"version"`
	SavedWall time.Time     `json:"savedWall"`
	SimTime   float64       `json:"simTime"`
	Rounds    int           `json:"rounds"`
	NextID    int           `json:"nextId"`
	Rejected  int           `json:"rejected,omitempty"`
	Jobs      []JobSnapshot `json:"jobs"`
}

// JobSnapshot is one job's durable state, each estimator's own: the loss
// fitter's retained samples (lossfit.Fitter.Points, compacted ones
// included), added back in order to a fresh fitter on restore, and the
// speed estimator's exact per-configuration accumulators (p, w, sum,
// weight). Both estimators after restore equal the ones before shutdown,
// including how future observations fold in.
type JobSnapshot struct {
	ID            int             `json:"id"`
	Model         string          `json:"model"`
	Mode          string          `json:"mode"`
	Threshold     float64         `json:"threshold"`
	Downscale     float64         `json:"downscale,omitempty"`
	ArrivalSim    float64         `json:"arrivalSim"`
	SubmittedWall time.Time       `json:"submittedWall"`
	State         JobState        `json:"state"`
	Progress      float64         `json:"progressEpochs"`
	DoneAtSim     float64         `json:"doneAtSim,omitempty"`
	Alloc         core.Allocation `json:"alloc"`
	Profiled      bool            `json:"profiled,omitempty"`
	Straggling    bool            `json:"straggling,omitempty"`
	LossObs       [][2]float64    `json:"lossObs,omitempty"`
	SpeedAcc      [][4]float64    `json:"speedAcc,omitempty"`
}

// WriteSnapshot serializes the daemon's state as indented JSON. The engine
// mutex plus a brief all-shard write lock give a consistent cut across every
// job (a submit or cancel is either wholly before or wholly after the
// snapshot); JSON encoding happens after all shard locks are released.
func (d *Daemon) WriteSnapshot(w io.Writer) error {
	d.mu.Lock()
	snap := d.snapshotLocked()
	d.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// snapshotLocked builds the snapshot value. Callers hold d.mu; the WAL
// checkpoint path (wal.go) shares it with WriteSnapshot.
func (d *Daemon) snapshotLocked() Snapshot {
	snap := Snapshot{
		Version:   SnapshotVersion,
		SavedWall: time.Now(),
		SimTime:   d.now,
		Rounds:    d.rounds,
		NextID:    int(d.nextID.Load()) + 1,
		Rejected:  int(d.rejected.Load()),
	}
	d.reg.lockAll()
	for i := range d.reg.shards {
		for id, j := range d.reg.shards[i].jobs {
			js := JobSnapshot{
				ID:            id,
				Model:         j.Spec.Model.Name,
				Mode:          j.Spec.Mode.String(),
				Threshold:     j.Spec.Threshold,
				Downscale:     j.Spec.Downscale,
				ArrivalSim:    j.Spec.Arrival,
				SubmittedWall: j.submittedWall,
				State:         j.state,
				Progress:      j.Progress,
				DoneAtSim:     j.DoneAt,
				Alloc:         j.Alloc,
				Profiled:      j.profiled,
				Straggling:    j.Straggling,
			}
			for _, p := range j.LossFit.Points() {
				js.LossObs = append(js.LossObs, [2]float64{p.K, p.Loss})
			}
			if j.profiled {
				js.SpeedAcc = j.SpeedEst.Accum()
			}
			snap.Jobs = append(snap.Jobs, js)
		}
	}
	d.reg.unlockAll()
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].ID < snap.Jobs[b].ID })
	return snap
}

// Restore loads a snapshot into a freshly constructed daemon. It must be
// called before the first Step/Submit; restoring over live state is an
// error. It takes the path a WAL replay anchored at a checkpoint takes: the
// checkpoint restore, then WALApplier.Finish.
func (d *Daemon) Restore(r io.Reader) error {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("serve: reading snapshot: %w", err)
	}
	d.mu.Lock()
	err := d.restoreSnapLocked(snap)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	d.NewWALApplier().Finish()
	return nil
}

// restoreSnapLocked loads a decoded snapshot as it was saved, running jobs
// included. Callers hold d.mu; the WAL replay applier (wal.go) shares it
// with Restore for checkpoint records.
func (d *Daemon) restoreSnapLocked(snap Snapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	if d.reg.len() != 0 || d.rounds != 0 {
		return fmt.Errorf("serve: cannot restore over live state")
	}
	jobs := make([]*job, len(snap.Jobs))
	for i, js := range snap.Jobs {
		j, err := restoreJob(js)
		if err != nil {
			return err
		}
		jobs[i] = j
	}
	// One parallel §3.1 refit of every restored curve, so building the
	// statuses below only reads the fits.
	d.refitLocked(jobs)
	var live int64
	for _, j := range jobs {
		// Publish the status snapshot before the registry insert so the job
		// is never findable without one.
		j.status.Store(newStatusSnap(d.buildStatus(j)))
		d.reg.put(j.Spec.ID, j)
		if !j.state.terminal() {
			live++
		}
	}
	d.live.Store(live)
	last := int64(snap.NextID) - 1
	if last < 0 {
		last = 0
	}
	d.nextID.Store(last)
	d.rejected.Store(int64(snap.Rejected))
	// The checkpoint ends like the round record it was written after.
	d.applyRound(walRound{Round: snap.Rounds, SimTime: snap.SimTime}, nil)
	return nil
}

// restoreJob rebuilds one job, loading the persisted estimator state into
// fresh estimators. It admits exactly what Submit admits.
func restoreJob(js JobSnapshot) (*job, error) {
	spec, err := SubmitRequest{Model: js.Model, Mode: js.Mode,
		Threshold: js.Threshold, Downscale: js.Downscale}.spec()
	switch js.State {
	case StatePending, StateWaiting, StateRunning, StateDone, StateCancelled:
	default:
		if err == nil {
			err = fmt.Errorf("bad state %q", js.State)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot job %d: %w", js.ID, err)
	}
	spec.ID, spec.Arrival = js.ID, js.ArrivalSim
	j := &job{
		Job:           sim.NewJob(spec),
		submittedWall: js.SubmittedWall,
		state:         js.State,
		profiled:      js.Profiled,
	}
	j.Progress, j.DoneAt, j.Alloc, j.Straggling = js.Progress, js.DoneAtSim, js.Alloc, js.Straggling
	// The live fitter accepted every point, so Add accepts each again; it
	// drops only an invalid one from an edited file.
	for _, p := range js.LossObs {
		_ = j.LossFit.Add(p[0], p[1])
	}
	if len(js.SpeedAcc) > 0 {
		j.SpeedEst.SetAccum(js.SpeedAcc)
	}
	return j, nil
}
