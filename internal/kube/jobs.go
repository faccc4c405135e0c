package kube

import (
	"fmt"
	"slices"
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
// into pods, re-creates and binds gangs where the scheduler's round placed
// them (the orchestrator half of §5.4's elastic scaling — the parameters
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

// group is one job's pending pods.
type group struct {
	jobID       int
	ps, workers []Pod
}

// pendingGroups groups the pending pods (those bound to no node) by job.
func pendingGroups(pods []Pod) map[int]group {
	groups := make(map[int]group)
	for _, p := range pods {
		if p.NodeName != "" {
			continue
		}
		g := groups[p.JobID]
		g.jobID = p.JobID
		if p.Role == RolePS {
			g.ps = append(g.ps, p)
		} else {
			g.workers = append(g.workers, p)
		}
		groups[p.JobID] = g
	}
	return groups
}

// bind binds g's pods to the nodes pl names, pl's per-node counts of each
// role, and returns the number bound. pl must place exactly g's pods.
func bind(api *APIServer, g group, pl core.Placement) (int, error) {
	if ps, w := pl.Counts(); ps != len(g.ps) || w != len(g.workers) {
		return 0, fmt.Errorf("kube: job %d: placement of %d PS + %d workers for %d + %d pending pods",
			g.jobID, ps, w, len(g.ps), len(g.workers))
	}
	bound := 0
	for i, node := range pl.NodeIDs {
		np, nw := pl.PSOnNode[i], pl.WorkersOnNode[i]
		for _, p := range slices.Concat(g.ps[:np], g.workers[:nw]) {
			if err := api.Bind(p.Name, node); err != nil {
				return bound, fmt.Errorf("kube: bind %s: %w", p.Name, err)
			}
			bound++
		}
		g.ps, g.workers = g.ps[np:], g.workers[nw:]
	}
	return bound, nil
}
