// Package kube is a miniature container orchestrator modeled on the
// Kubernetes surface Optimus deploys against (§5.5): an API server holding
// node and pod objects with admission-checked binding and node draining,
// and a JobController that keeps each training job's pod group where the
// operator's scheduling round placed it. The operator (internal/operator)
// is the one scheduler that drives it; it persists the job state a restarted
// scheduler recovers from (Operator.SaveState), so this store persists none.
package kube

import (
	"fmt"
	"sort"
	"sync"

	"optimus/internal/cluster"
)

// Role distinguishes the two task kinds of a PS training job.
type Role string

// Pod roles.
const (
	RolePS     Role = "ps"
	RoleWorker Role = "worker"
)

// Pod is one schedulable unit (a PS or worker container).
type Pod struct {
	Name      string
	JobID     int
	Role      Role
	Resources cluster.Resources
	NodeName  string // "" while pending
}

// Node is one registered server.
type Node struct {
	Name     string
	Capacity cluster.Resources
}

// APIServer is the cluster control plane: a store of nodes and pods with
// admission-checked pod binding.
type APIServer struct {
	mu    sync.Mutex
	nodes map[string]*Node
	pods  map[string]*Pod
}

// NewAPIServer returns an empty control plane.
func NewAPIServer() *APIServer {
	return &APIServer{nodes: make(map[string]*Node), pods: make(map[string]*Pod)}
}

// RegisterNode adds a node; duplicate names are rejected.
func (a *APIServer) RegisterNode(n Node) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.nodes[n.Name]; dup {
		return fmt.Errorf("kube: node %q exists", n.Name)
	}
	a.nodes[n.Name] = &n
	return nil
}

// CreatePod admits a new pending pod.
func (a *APIServer) CreatePod(p Pod) error {
	if p.Name == "" {
		return fmt.Errorf("kube: pod has no name")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.pods[p.Name]; dup {
		return fmt.Errorf("kube: pod %q exists", p.Name)
	}
	p.NodeName = ""
	a.pods[p.Name] = &p
	return nil
}

// DeletePod removes a pod, bound or pending.
func (a *APIServer) DeletePod(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.pods[name]; !ok {
		return fmt.Errorf("kube: no pod %q", name)
	}
	delete(a.pods, name)
	return nil
}

// Bind assigns a pending pod to a node after an admission check against the
// node's free capacity (sum of resources of pods already bound there).
func (a *APIServer) Bind(podName, nodeName string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pods[podName]
	if !ok {
		return fmt.Errorf("kube: no pod %q", podName)
	}
	if p.NodeName != "" {
		return fmt.Errorf("kube: pod %q already bound to %q", podName, p.NodeName)
	}
	n, ok := a.nodes[nodeName]
	if !ok {
		return fmt.Errorf("kube: no node %q", nodeName)
	}
	free := n.Capacity
	for _, other := range a.pods {
		if other.NodeName == nodeName {
			free = free.Sub(other.Resources)
		}
	}
	if !p.Resources.Fits(free) {
		return fmt.Errorf("kube: pod %q (%v) does not fit node %q (free %v)",
			podName, p.Resources, nodeName, free)
	}
	p.NodeName = nodeName
	return nil
}

// GetPod returns a snapshot of one pod.
func (a *APIServer) GetPod(name string) (Pod, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pods[name]
	if !ok {
		return Pod{}, false
	}
	return *p, true
}

// ListPods returns pod snapshots sorted by name.
func (a *APIServer) ListPods() []Pod {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Pod, 0, len(a.pods))
	for _, p := range a.pods {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ListNodes returns node snapshots sorted by name.
func (a *APIServer) ListNodes() []Node {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Node, 0, len(a.nodes))
	for _, n := range a.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DrainNode removes a node from the cluster: every pod bound to it becomes
// pending again, so the next round can re-place it elsewhere — the
// control-plane half of recovering from a server failure.
func (a *APIServer) DrainNode(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.nodes[name]; !ok {
		return fmt.Errorf("kube: no node %q", name)
	}
	delete(a.nodes, name)
	for _, p := range a.pods {
		if p.NodeName == name {
			p.NodeName = ""
		}
	}
	return nil
}
