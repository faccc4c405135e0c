package core

import (
	"fmt"
	"math/rand"
	"testing"

	"optimus/internal/cluster"
)

// headroomCase is one cluster and request for the headroom soundness
// property. The cluster is rebuilt from the spec, so the placer runs on a
// clone the headroom never saw.
type headroomCase struct {
	nodes      []headroomNode
	workerRes  cluster.Resources
	psRes      cluster.Resources
	alloc      Allocation
	boundaries int // nodes whose capacity is an exact task multiple, ±1e-10
}

type headroomNode struct {
	capacity cluster.Resources
	tasks    []cluster.Resources // allocated in order; a task that does not fit is skipped
	// overReserve is taken off the capacity after the tasks are allocated,
	// leaving the node with negative availability.
	overReserve cluster.Resources
}

func (hc headroomCase) build() *cluster.Cluster {
	c := cluster.New()
	for i, spec := range hc.nodes {
		n := cluster.NewNode(fmt.Sprintf("n%02d", i), spec.capacity)
		for _, r := range spec.tasks {
			_ = n.Allocate(r)
		}
		n.Capacity = n.Capacity.Sub(spec.overReserve)
		if err := c.AddNode(n); err != nil {
			panic(err)
		}
	}
	return c
}

// check requires a request the headroom rejects to stay unplaced by Place on
// a clone of the cluster. It reports whether the bound rejected the request
// and whether Place placed it.
func (hc headroomCase) check(t *testing.T) (rejected, placed bool) {
	t.Helper()
	rejected = !NewHeadroom(hc.workerRes, hc.psRes, hc.build()).Admits(hc.alloc)
	req := PlacementRequest{JobID: 1, Alloc: hc.alloc, WorkerRes: hc.workerRes, PSRes: hc.psRes}
	pls, _ := Place([]PlacementRequest{req}, hc.build())
	_, placed = pls[1]
	if rejected && placed {
		t.Fatalf("headroom rejected %+v, but Place placed it as %+v\nworker %v, ps %v, nodes %+v",
			hc.alloc, pls[1], hc.workerRes, hc.psRes, hc.nodes)
	}
	return rejected, placed
}

// headroomGen draws cases from a byte source: a seeded rng for the property
// test, the fuzzer's input for FuzzHeadroom.
type headroomGen struct{ next func() int }

func (g headroomGen) pick(vals ...float64) float64 { return vals[g.next()%len(vals)] }

func (g headroomGen) pick2(a, b cluster.Resources) cluster.Resources {
	if g.next()%2 == 0 {
		return a
	}
	return b
}

func (g headroomGen) profile() cluster.Resources {
	return cluster.Resources{
		cluster.CPU:       g.pick(0.5, 1, 2, 3, 4, 0),
		cluster.Memory:    g.pick(0, 2, 4, 14, 0.1),
		cluster.GPU:       g.pick(0, 0, 0, 1),
		cluster.Bandwidth: g.pick(0, 0, 0.1, 0.25),
	}
}

func (g headroomGen) draw() headroomCase {
	hc := headroomCase{workerRes: g.profile(), psRes: g.profile()}
	total := 0
	for i, n := 0, 1+g.next()%8; i < n; i++ {
		var node headroomNode
		switch g.next() % 5 {
		case 0: // zero capacity
		case 1: // an exact multiple of the task profiles, nudged by ±1e-10
			k, m := g.next()%5, g.next()%4
			delta := g.pick(0, 1e-10, -1e-10)
			node.capacity = hc.workerRes.Scale(float64(k)).Add(hc.psRes.Scale(float64(m)))
			for d := range node.capacity {
				node.capacity[d] = max(0, node.capacity[d]+delta)
			}
			hc.boundaries++
			total += k + m
		default: // heterogeneous
			node.capacity = cluster.Resources{
				cluster.CPU:       g.pick(0, 4, 8, 16, 32, 6.5),
				cluster.Memory:    g.pick(0, 16, 64, 128, 30),
				cluster.GPU:       g.pick(0, 2, 4),
				cluster.Bandwidth: g.pick(1, 10, 0.5),
			}
			total += 8
		}
		for j, used := 0, g.next()%4; j < used; j++ { // partly used
			node.tasks = append(node.tasks, g.pick2(hc.workerRes, hc.psRes))
		}
		if g.next()%6 == 0 { // over-reserved
			node.overReserve = cluster.Resources{cluster.CPU: g.pick(1, 40), cluster.Memory: g.pick(0, 200)}
		}
		hc.nodes = append(hc.nodes, node)
	}
	// Mostly small requests, up to a few beyond the node capacities.
	limit := 1 + g.next()%(total+3)
	hc.alloc = Allocation{PS: 1 + g.next()%limit, Workers: 1 + g.next()%limit}
	return hc
}

// TestHeadroomSound drives the bound over seeded random clusters —
// heterogeneous, zero-capacity, partly used, over-reserved and exact-multiple
// nodes — and requires that Place never places a request Admits rejects. It
// also requires the bound to reject often, so the property is not vacuous,
// and to admit requests that do place.
func TestHeadroomSound(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := headroomGen{next: func() int { return rng.Intn(1 << 20) }}
	rejected, placed, boundaryPlaced := 0, 0, 0
	for i := 0; i < 20000; i++ {
		hc := g.draw()
		rej, ok := hc.check(t)
		if rej {
			rejected++
		}
		if ok {
			placed++
			if hc.boundaries > 0 {
				boundaryPlaced++
			}
		}
	}
	if rejected < 2000 || placed < 2000 || boundaryPlaced < 500 {
		t.Errorf("%d rejected, %d placed (%d on clusters with exact-multiple nodes) of 20000: the cases do not exercise both sides",
			rejected, placed, boundaryPlaced)
	}
}

// TestHeadroomBoundary pins the exact-fit edge: a node with room for exactly
// four workers, give or take 1e-10 per dimension, places four, and the bound
// admits four and rejects five.
func TestHeadroomBoundary(t *testing.T) {
	worker := cluster.Resources{cluster.CPU: 4, cluster.Memory: 14}
	ps := cluster.Resources{cluster.CPU: 3, cluster.Memory: 14}
	for _, delta := range []float64{0, 1e-10, -1e-10} {
		capacity := worker.Scale(4).Add(ps)
		for d := range capacity {
			capacity[d] += delta
		}
		hc := headroomCase{nodes: []headroomNode{{capacity: capacity}}, workerRes: worker, psRes: ps}
		hc.alloc = Allocation{PS: 1, Workers: 4}
		if rej, ok := hc.check(t); rej || !ok {
			t.Errorf("delta %g: 1 PS + 4 workers rejected %v, placed %v; want admitted and placed", delta, rej, ok)
		}
		hc.alloc = Allocation{PS: 1, Workers: 5}
		if rej, _ := hc.check(t); !rej {
			t.Errorf("delta %g: the bound admits a fifth worker on a node with room for four", delta)
		}
	}
}

// FuzzHeadroom is TestHeadroomSound over fuzzer-chosen cases.
func FuzzHeadroom(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{255, 0, 255, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		g := headroomGen{next: func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[i%len(data)]
			i++
			return int(b)
		}}
		g.draw().check(t)
	})
}
