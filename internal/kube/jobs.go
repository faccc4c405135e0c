package kube

import (
	"fmt"
	"sync"

	"optimus/internal/cluster"
	"optimus/internal/core"
)

// TrainingJob is the orchestrator-side description of one PS training job:
// a gang of PS and worker pods with shared resource profiles.
type TrainingJob struct {
	ID        int
	PS        int
	Workers   int
	PSRes     cluster.Resources
	WorkerRes cluster.Resources
}

func (j TrainingJob) validate() error {
	if j.PS <= 0 || j.Workers <= 0 {
		return fmt.Errorf("kube: job %d needs ≥1 PS and ≥1 worker", j.ID)
	}
	return nil
}

// JobController owns the pod groups of training jobs: it turns job specs
// into pods, resizes gangs when the scheduler changes a job's allocation
// (the orchestrator half of §5.4's elastic scaling — the parameters
// themselves travel via checkpoint in the training runtime), and cleans up
// on completion.
type JobController struct {
	api *APIServer

	mu   sync.Mutex
	jobs map[int]TrainingJob
}

// NewJobController builds a controller against the control plane.
func NewJobController(api *APIServer) *JobController {
	return &JobController{api: api, jobs: make(map[int]TrainingJob)}
}

func podName(jobID int, role Role, idx int) string {
	return fmt.Sprintf("job%d-%s-%d", jobID, role, idx)
}

// Submit creates the job's pod group (all pods pending until a scheduler
// binds them).
func (jc *JobController) Submit(job TrainingJob) error {
	if err := job.validate(); err != nil {
		return err
	}
	jc.mu.Lock()
	defer jc.mu.Unlock()
	if _, dup := jc.jobs[job.ID]; dup {
		return fmt.Errorf("kube: job %d already submitted", job.ID)
	}
	created := make([]string, 0, job.PS+job.Workers)
	rollback := func() {
		for _, name := range created {
			_ = jc.api.DeletePod(name) // best-effort cleanup
		}
	}
	for i := 0; i < job.PS; i++ {
		name := podName(job.ID, RolePS, i)
		if err := jc.api.CreatePod(Pod{
			Name: name, JobID: job.ID, Role: RolePS, Resources: job.PSRes,
		}); err != nil {
			rollback()
			return err
		}
		created = append(created, name)
	}
	for i := 0; i < job.Workers; i++ {
		name := podName(job.ID, RoleWorker, i)
		if err := jc.api.CreatePod(Pod{
			Name: name, JobID: job.ID, Role: RoleWorker, Resources: job.WorkerRes,
		}); err != nil {
			rollback()
			return err
		}
		created = append(created, name)
	}
	jc.jobs[job.ID] = job
	return nil
}

// Resize replaces the job's pod group with one of the new shape. Following
// §5.4's checkpoint-based method, the whole gang restarts: old pods are
// deleted (their runtime checkpoints first, in the training layer) and a
// fresh pending group is created for the scheduler's next cycle.
func (jc *JobController) Resize(jobID, newPS, newWorkers int) error {
	jc.mu.Lock()
	job, ok := jc.jobs[jobID]
	jc.mu.Unlock()
	if !ok {
		return fmt.Errorf("kube: no job %d", jobID)
	}
	next := job
	next.PS, next.Workers = newPS, newWorkers
	if err := next.validate(); err != nil {
		return err
	}
	if next == job {
		return nil // no change
	}
	return jc.replace(next)
}

// replace deletes the job's pod group and creates next in its place, pending.
func (jc *JobController) replace(next TrainingJob) error {
	if err := jc.Delete(next.ID); err != nil {
		return err
	}
	return jc.Submit(next)
}

// Apply makes the control plane hold each job's pod group where place puts
// it, at the placement's shape, and every other job's group pending: each
// group not already so is re-created pending, and then each placed one is
// bound. It returns the number of pods bound. A move restarts no training.
func (jc *JobController) Apply(place map[int]core.Placement) (int, error) {
	var placed []int
	for _, job := range jc.Jobs() {
		pl := place[job.ID]
		if jc.exactly(job, pl) {
			continue
		}
		next := job
		if pl.Servers() > 0 {
			next.PS, next.Workers = pl.Counts()
			placed = append(placed, job.ID)
		}
		if err := jc.replace(next); err != nil {
			return 0, err
		}
	}
	bound := 0
	for _, id := range placed {
		n, err := bind(jc.api, pendingGroups(jc.Pods(id))[id], place[id])
		bound += n
		if err != nil {
			return bound, err
		}
	}
	return bound, nil
}

// exactly reports whether job's pods are exactly where pl places them; for
// the zero Placement, whether they are all pending.
func (jc *JobController) exactly(job TrainingJob, pl core.Placement) bool {
	type slot struct {
		node string // "" is pending
		role Role
	}
	want := map[slot]int{{"", RolePS}: job.PS, {"", RoleWorker}: job.Workers}
	if pl.Servers() > 0 {
		want = make(map[slot]int)
	}
	for i, node := range pl.NodeIDs {
		want[slot{node, RolePS}] = pl.PSOnNode[i]
		want[slot{node, RoleWorker}] = pl.WorkersOnNode[i]
	}
	for _, p := range jc.Pods(job.ID) {
		want[slot{p.NodeName, p.Role}]--
	}
	for _, n := range want {
		if n != 0 {
			return false
		}
	}
	return true
}

// Delete removes the job and all of its pods.
func (jc *JobController) Delete(jobID int) error {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	job, ok := jc.jobs[jobID]
	if !ok {
		return fmt.Errorf("kube: no job %d", jobID)
	}
	if err := jc.deletePodsLocked(job); err != nil {
		return err
	}
	delete(jc.jobs, jobID)
	return nil
}

func (jc *JobController) deletePodsLocked(job TrainingJob) error {
	for i := 0; i < job.PS; i++ {
		if err := jc.api.DeletePod(podName(job.ID, RolePS, i)); err != nil {
			return err
		}
	}
	for i := 0; i < job.Workers; i++ {
		if err := jc.api.DeletePod(podName(job.ID, RoleWorker, i)); err != nil {
			return err
		}
	}
	return nil
}

// Jobs lists the submitted jobs.
func (jc *JobController) Jobs() []TrainingJob {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	out := make([]TrainingJob, 0, len(jc.jobs))
	for _, j := range jc.jobs {
		out = append(out, j)
	}
	return out
}

// Pods returns the job's current pods.
func (jc *JobController) Pods(jobID int) []Pod {
	var out []Pod
	for _, p := range jc.api.ListPods() {
		if p.JobID == jobID {
			out = append(out, p)
		}
	}
	return out
}
