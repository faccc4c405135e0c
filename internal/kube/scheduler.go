package kube

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
)

// OptimusScheduler is Optimus deployed as a custom scheduler pod (§5.5): it
// polls the API server for pending pods, groups them by job, and binds each
// job's pod group using the §4.2 placement scheme (fewest servers, even PS
// and worker counts per server). Pods that cannot be placed stay pending
// for the next cycle, as the paper prescribes.
type OptimusScheduler struct {
	api *APIServer
}

// NewOptimusScheduler builds a scheduler against the given control plane.
func NewOptimusScheduler(api *APIServer) *OptimusScheduler {
	return &OptimusScheduler{api: api}
}

// ScheduleOnce runs one scheduling cycle and returns the number of pods
// bound.
func (s *OptimusScheduler) ScheduleOnce() (int, error) {
	groups := pendingGroups(s.api.ListPods())
	if len(groups) == 0 {
		return 0, nil
	}

	// Mirror the cluster's free state into a placement cluster.
	free := s.api.FreeCapacity()
	c := cluster.New()
	for _, n := range s.api.ListNodes() {
		if err := c.AddNode(cluster.NewNode(n.Name, free[n.Name])); err != nil {
			return 0, err
		}
	}

	var reqs []core.PlacementRequest
	for id, g := range groups {
		if len(g.ps) == 0 || len(g.workers) == 0 {
			continue // incomplete group; wait for all pods
		}
		reqs = append(reqs, core.PlacementRequest{
			JobID:     id,
			Alloc:     core.Allocation{PS: len(g.ps), Workers: len(g.workers)},
			WorkerRes: g.workers[0].Resources,
			PSRes:     g.ps[0].Resources,
		})
	}
	placements, _ := core.Place(reqs, c)

	bound := 0
	for id, pl := range placements {
		n, err := bind(s.api, groups[id], pl)
		bound += n
		if err != nil {
			return bound, err
		}
	}
	return bound, nil
}

// group is one job's pending, unbound pods.
type group struct {
	jobID       int
	ps, workers []Pod
}

// pendingGroups groups the pending, unbound pods by job.
func pendingGroups(pods []Pod) map[int]group {
	groups := make(map[int]group)
	for _, p := range pods {
		if p.Phase != PodPending || p.NodeName != "" {
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

// PodRunner is invoked by a node agent when a pod starts on its node; the
// returned function (may be nil) is invoked when the pod should stop.
type PodRunner func(pod Pod) (stop func())

// Kubelet is a node agent: it watches for pods bound to its node and drives
// them Pending→Running, invoking the runner (which launches the actual
// process — in our examples, a psys task).
type Kubelet struct {
	api    *APIServer
	node   string
	runner PodRunner

	mu      sync.Mutex
	stops   map[string]func()
	cancel  func()
	stopped bool
	wg      sync.WaitGroup
}

// StartKubelet launches the agent loop for one node.
func StartKubelet(api *APIServer, node string, runner PodRunner) *Kubelet {
	k := &Kubelet{api: api, node: node, runner: runner, stops: make(map[string]func())}
	events, cancel := api.Watch()
	k.cancel = cancel
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		// Handle pods bound before the watch started.
		for _, p := range api.ListPods() {
			k.handle(Event{Type: EventModified, Pod: p})
		}
		for ev := range events {
			k.handle(ev)
		}
	}()
	return k
}

func (k *Kubelet) handle(ev Event) {
	p := ev.Pod
	if p.NodeName != k.node {
		return
	}
	switch ev.Type {
	case EventModified, EventAdded:
		if p.Phase != PodPending {
			return
		}
		k.mu.Lock()
		if k.stopped {
			k.mu.Unlock()
			return
		}
		if _, running := k.stops[p.Name]; running {
			k.mu.Unlock()
			return
		}
		var stop func()
		if k.runner != nil {
			stop = k.runner(p)
		}
		if stop == nil {
			stop = func() {}
		}
		k.stops[p.Name] = stop
		k.mu.Unlock()
		// Ignore racing deletes: SetPhase fails harmlessly if the pod went
		// away between the bind event and now.
		_ = k.api.SetPhase(p.Name, PodRunning)
	case EventDeleted:
		k.mu.Lock()
		stop := k.stops[p.Name]
		delete(k.stops, p.Name)
		k.mu.Unlock()
		if stop != nil {
			stop()
		}
	}
}

// Stop terminates the agent and stops all pods it runs.
func (k *Kubelet) Stop() {
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		return
	}
	k.stopped = true
	stops := make([]func(), 0, len(k.stops))
	for _, s := range k.stops {
		stops = append(stops, s)
	}
	k.stops = map[string]func(){}
	k.mu.Unlock()
	k.cancel()
	k.wg.Wait()
	for _, s := range stops {
		s()
	}
}

// WaitRunning polls until at least n pods are Running or the timeout
// elapses, returning the running count. Convenience for tests and demos.
func WaitRunning(api *APIServer, n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		running := 0
		for _, p := range api.ListPods() {
			if p.Phase == PodRunning {
				running++
			}
		}
		if running >= n || time.Now().After(deadline) {
			return running
		}
		time.Sleep(2 * time.Millisecond)
	}
}
