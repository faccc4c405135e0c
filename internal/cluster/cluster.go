// Package cluster models the multi-resource server fleet Optimus schedules
// on: nodes with CPU / memory / GPU / network-bandwidth capacities, and the
// bookkeeping for per-node and cluster-wide allocation. It corresponds to the
// testbed of §6.1 (7 CPU servers + 6 GPU servers) and to the node model the
// discrete-time simulator uses.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ResourceType enumerates the resource dimensions tracked per node.
type ResourceType int

const (
	CPU       ResourceType = iota // cores
	Memory                        // GB
	GPU                           // devices
	Bandwidth                     // Gbps of NIC capacity

	NumResourceTypes
)

// String implements fmt.Stringer.
func (r ResourceType) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "mem"
	case GPU:
		return "gpu"
	case Bandwidth:
		return "bw"
	default:
		return fmt.Sprintf("res(%d)", int(r))
	}
}

// Resources is a vector of resource quantities indexed by ResourceType.
type Resources [NumResourceTypes]float64

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	for i := range r {
		r[i] += o[i]
	}
	return r
}

// Sub returns r − o.
func (r Resources) Sub(o Resources) Resources {
	for i := range r {
		r[i] -= o[i]
	}
	return r
}

// Scale returns r scaled by f.
func (r Resources) Scale(f float64) Resources {
	for i := range r {
		r[i] *= f
	}
	return r
}

// Fits reports whether r fits inside capacity c (componentwise ≤, with a
// small epsilon so float accounting noise does not reject exact fits).
func (r Resources) Fits(c Resources) bool {
	const eps = 1e-9
	for i := range r {
		if r[i] > c[i]+eps {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is ≥ 0 (modulo epsilon).
func (r Resources) NonNegative() bool {
	const eps = 1e-9
	for _, v := range r {
		if v < -eps {
			return false
		}
	}
	return true
}

// IsZero reports whether all components are zero.
func (r Resources) IsZero() bool {
	for _, v := range r {
		if v != 0 {
			return false
		}
	}
	return true
}

// DominantShare returns the maximum of r[i]/capacity[i] over resource types
// with non-zero capacity, and the resource type attaining it. This is the
// DRF dominant share and also the "dominant resource" of §4.1's marginal
// gain normalization.
func (r Resources) DominantShare(capacity Resources) (float64, ResourceType) {
	best, bestType := 0.0, CPU
	for i := range r {
		if capacity[i] <= 0 {
			continue
		}
		if s := r[i] / capacity[i]; s > best {
			best, bestType = s, ResourceType(i)
		}
	}
	return best, bestType
}

// String renders the vector compactly, omitting zero components.
func (r Resources) String() string {
	var parts []string
	for i, v := range r {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", ResourceType(i), v))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Node is one physical server.
type Node struct {
	ID       string
	Capacity Resources
	used     Resources
}

// NewNode creates a node with the given capacity.
func NewNode(id string, capacity Resources) *Node {
	return &Node{ID: id, Capacity: capacity}
}

// Used returns the currently allocated resources.
func (n *Node) Used() Resources { return n.used }

// Available returns Capacity − Used.
func (n *Node) Available() Resources { return n.Capacity.Sub(n.used) }

// CanFit reports whether req fits in the node's available resources.
func (n *Node) CanFit(req Resources) bool { return req.Fits(n.Available()) }

// Allocate reserves req on the node. It returns an error if the request does
// not fit, leaving the node unchanged.
func (n *Node) Allocate(req Resources) error {
	if !n.CanFit(req) {
		return fmt.Errorf("cluster: node %s cannot fit %v (available %v)",
			n.ID, req, n.Available())
	}
	n.used = n.used.Add(req)
	return nil
}

// Release returns req to the node. Releasing more than allocated is a
// programming error and returns an error without modifying the node.
func (n *Node) Release(req Resources) error {
	remaining := n.used.Sub(req)
	if !remaining.NonNegative() {
		return fmt.Errorf("cluster: node %s release %v exceeds used %v", n.ID, req, n.used)
	}
	n.used = remaining
	// Clamp float dust so long alloc/release sequences don't drift.
	for i := range n.used {
		if math.Abs(n.used[i]) < 1e-9 {
			n.used[i] = 0
		}
	}
	return nil
}

// Reset clears all allocations on the node.
func (n *Node) Reset() {
	n.used = Resources{}
}

// Cluster is a collection of nodes.
type Cluster struct {
	nodes []*Node
	byID  map[string]*Node
}

// New creates an empty cluster.
func New() *Cluster {
	return &Cluster{byID: make(map[string]*Node)}
}

// AddNode inserts a node; duplicate IDs are rejected.
func (c *Cluster) AddNode(n *Node) error {
	if _, dup := c.byID[n.ID]; dup {
		return fmt.Errorf("cluster: duplicate node id %q", n.ID)
	}
	c.nodes = append(c.nodes, n)
	c.byID[n.ID] = n
	return nil
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id string) *Node { return c.byID[id] }

// Nodes returns the nodes in insertion order. Callers must not mutate the
// slice itself (mutating nodes through the pointers is the intended use).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Capacity returns the summed capacity of all nodes — the C_r of §4.1's
// capacity constraint.
func (c *Cluster) Capacity() Resources {
	var total Resources
	for _, n := range c.nodes {
		total = total.Add(n.Capacity)
	}
	return total
}

// Used returns the summed allocations of all nodes.
func (c *Cluster) Used() Resources {
	var total Resources
	for _, n := range c.nodes {
		total = total.Add(n.used)
	}
	return total
}

// Available returns Capacity − Used.
func (c *Cluster) Available() Resources { return c.Capacity().Sub(c.Used()) }

// ResetAll clears allocations on every node.
func (c *Cluster) ResetAll() {
	for _, n := range c.nodes {
		n.Reset()
	}
}

// SortedByAvailable returns the nodes sorted in descending order of available
// capacity of the given resource type (ties broken by node ID for
// determinism). This is the server ordering of the §4.2 placement scheme,
// which uses available CPU.
func (c *Cluster) SortedByAvailable(rt ResourceType) []*Node {
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := out[i].Available()[rt], out[j].Available()[rt]
		if ai != aj {
			return ai > aj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Testbed builds the paper's evaluation cluster (§6.1): 7 CPU servers with
// two 8-core CPUs and 80 GB memory, and 6 GPU servers with one 8-core CPU,
// 2 GPUs and 48 GB memory, all on a 1 GbE switch.
func Testbed() *Cluster {
	c := New()
	for i := 0; i < 7; i++ {
		n := NewNode(fmt.Sprintf("cpu-%d", i),
			Resources{CPU: 16, Memory: 80, GPU: 0, Bandwidth: 1})
		if err := c.AddNode(n); err != nil {
			panic(err) // unreachable: IDs are unique by construction
		}
	}
	for i := 0; i < 6; i++ {
		n := NewNode(fmt.Sprintf("gpu-%d", i),
			Resources{CPU: 8, Memory: 48, GPU: 2, Bandwidth: 1})
		if err := c.AddNode(n); err != nil {
			panic(err)
		}
	}
	return c
}

// Uniform builds a cluster of n identical nodes, convenient for simulations
// and the scalability benchmarks (Fig. 12).
func Uniform(n int, capacity Resources) *Cluster {
	c := New()
	for i := 0; i < n; i++ {
		node := NewNode(fmt.Sprintf("node-%d", i), capacity)
		if err := c.AddNode(node); err != nil {
			panic(err)
		}
	}
	return c
}
