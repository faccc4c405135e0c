package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optimus/internal/cluster"
)

// randJobs builds n jobs with random smooth speed surfaces, resource
// profiles, caps, and priorities. Random float64 parameters make exact gain
// ties (where the old and new heaps could legitimately order grants
// differently) improbable, so output equality is a meaningful oracle.
func randJobs(r *rand.Rand, n int) []*JobInfo {
	jobs := make([]*JobInfo, n)
	for i := range jobs {
		a := 0.5 + r.Float64()
		b := 0.1 + r.Float64()
		c := 0.05 + 0.2*r.Float64()
		j := &JobInfo{
			ID:            i,
			RemainingWork: 1e4 * (0.5 + r.Float64()),
			Speed: func(p, w int) float64 {
				if p <= 0 || w <= 0 {
					return 0
				}
				pf, wf := float64(p), float64(w)
				return a * wf / (1 + b*wf/pf + c*wf)
			},
			WorkerRes: cluster.Resources{
				cluster.CPU:    2 + 2*r.Float64(),
				cluster.Memory: 4 + 4*r.Float64(),
			},
			PSRes: cluster.Resources{
				cluster.CPU:    1 + r.Float64(),
				cluster.Memory: 2 + 2*r.Float64(),
			},
			MaxWorkers: r.Intn(3) * 8, // 0 (uncapped) two thirds of the time
			MaxPS:      r.Intn(3) * 4,
		}
		if r.Intn(4) == 0 {
			j.Priority = 0.95
		}
		jobs[i] = j
	}
	return jobs
}

// TestAllocateMatchesReference drives the incremental AllocState allocator
// and the preserved pre-refactor implementation over seeded random workloads
// and requires identical allocations. A single AllocState is reused across
// all cases, so stale-scratch bugs surface as cross-seed contamination.
func TestAllocateMatchesReference(t *testing.T) {
	st := NewAllocState()
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		jobs := randJobs(r, n)
		// Capacity between starving and abundant, varying per seed.
		scale := 2 + r.Float64()*38
		capacity := cluster.Resources{
			cluster.CPU:    float64(n) * scale,
			cluster.Memory: float64(n) * scale * 3,
		}

		want := refAllocate(jobs, capacity)
		got := st.Allocate(jobs, capacity)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: allocations diverge\nref: %v\nnew: %v", seed, want, got)
		}
	}
}

// clusterSpec captures node capacities so a random cluster can be built
// twice — the reference and incremental placers each need their own copy to
// commit allocations into.
func randClusterSpec(r *rand.Rand) []cluster.Resources {
	n := 3 + r.Intn(30)
	specs := make([]cluster.Resources, n)
	for i := range specs {
		specs[i] = cluster.Resources{
			cluster.CPU:    8 + float64(r.Intn(5))*4,
			cluster.Memory: 32 + float64(r.Intn(4))*16,
		}
	}
	return specs
}

func buildCluster(specs []cluster.Resources) *cluster.Cluster {
	c := cluster.New()
	for i, cap := range specs {
		if err := c.AddNode(cluster.NewNode(nodeID(i), cap)); err != nil {
			panic(err)
		}
	}
	return c
}

func nodeID(i int) string {
	// Zero-padded so lexicographic ID order is stable regardless of count.
	const digits = "0123456789"
	return "n" + string([]byte{digits[i/100%10], digits[i/10%10], digits[i%10]})
}

// TestPlaceMatchesReference drives PlaceState.Place and the preserved
// pre-refactor Place over seeded random request batches on identical
// clusters, requiring identical placements, unplaced sets, and final
// per-node usage. One PlaceState is reused across every seed.
func TestPlaceMatchesReference(t *testing.T) {
	st := NewPlaceState()
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		specs := randClusterSpec(r)
		cRef := buildCluster(specs)
		cNew := buildCluster(specs)

		nreq := 1 + r.Intn(12)
		reqs := make([]PlacementRequest, nreq)
		for i := range reqs {
			reqs[i] = PlacementRequest{
				JobID: i,
				Alloc: Allocation{PS: r.Intn(6), Workers: r.Intn(10)},
				WorkerRes: cluster.Resources{
					cluster.CPU:    1 + 3*r.Float64(),
					cluster.Memory: 2 + 6*r.Float64(),
				},
				PSRes: cluster.Resources{
					cluster.CPU:    1 + 2*r.Float64(),
					cluster.Memory: 1 + 4*r.Float64(),
				},
			}
		}

		wantPl, wantUn := refPlace(reqs, cRef)
		gotPl, gotUn := st.Place(reqs, cNew)

		if !reflect.DeepEqual(wantPl, gotPl) {
			t.Fatalf("seed %d: placements diverge\nref: %v\nnew: %v", seed, wantPl, gotPl)
		}
		if !reflect.DeepEqual(wantUn, gotUn) {
			t.Fatalf("seed %d: unplaced diverge\nref: %v\nnew: %v", seed, wantUn, gotUn)
		}
		for i, n := range cRef.Nodes() {
			if n.Used() != cNew.Nodes()[i].Used() {
				t.Fatalf("seed %d: node %s usage diverges: ref %v, new %v",
					seed, n.ID, n.Used(), cNew.Nodes()[i].Used())
			}
		}
	}
}

// TestGreedyBalancedMatchesScan drives the heap-backed greedyBalanced and
// the kept scan, refGreedyBalanced, on identical node slices over seeded
// instances: uniform clusters (every node ties until it takes a task, so the
// position tie-break decides), mixed node sizes, and partly used nodes, from
// one node to ~600, with allocations both within and above the p+w+16 prefix
// the placer hands the first greedy attempt, feasible and not. Success and the
// per-node PS and worker counts must match. One PlaceState is reused, so stale
// scratch surfaces as cross-instance contamination.
func TestGreedyBalancedMatchesScan(t *testing.T) {
	st := NewPlaceState()
	var placed, failed, wide int
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(5000 + seed))
		n := 1 + r.Intn(40)
		if r.Intn(3) == 0 {
			n = 1 + r.Intn(600)
		}
		shape := seed % 3 // 0 uniform, 1 mixed sizes, 2 uniform and partly used
		c := cluster.New()
		for i := 0; i < n; i++ {
			cap := cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}
			if shape == 1 {
				cap = cluster.Resources{
					cluster.CPU:    4 + float64(r.Intn(8))*4,
					cluster.Memory: 16 + float64(r.Intn(6))*16,
				}
			}
			node := cluster.NewNode(nodeID(i), cap)
			if shape == 2 {
				for u := r.Intn(4); u > 0; u-- {
					if err := node.Allocate(cluster.Resources{cluster.CPU: 3, cluster.Memory: 10}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.AddNode(node); err != nil {
				t.Fatal(err)
			}
		}
		req := PlacementRequest{
			JobID:     int(seed),
			WorkerRes: cluster.Resources{cluster.CPU: 2, cluster.Memory: 8},
			PSRes:     cluster.Resources{cluster.CPU: 1, cluster.Memory: 4},
		}
		if r.Intn(2) == 0 { // off-grid profiles: spare CPU rarely ties
			req.WorkerRes = cluster.Resources{cluster.CPU: 1 + 3*r.Float64(), cluster.Memory: 2 + 6*r.Float64()}
			req.PSRes = cluster.Resources{cluster.CPU: 1 + 2*r.Float64(), cluster.Memory: 1 + 4*r.Float64()}
		}
		// Up to ~1.5× what the cluster could hold of the worker profile, so
		// some instances run out of room; or a grant small against the
		// cluster, like the placer's full-ordering retry on a wide cluster.
		room := 1 + int(1.5*c.Capacity()[cluster.CPU]/req.WorkerRes[cluster.CPU])
		if r.Intn(2) == 0 {
			room = 1 + n/2
		}
		p, w := r.Intn(room/3+1), r.Intn(room)
		if p+w+16 < n {
			wide++
		}
		nodes := c.Nodes()

		want, wantOK := refGreedyBalanced(req, nodes, p, w)
		st.recNodes, st.recPS, st.recW, st.touched = st.recNodes[:0], st.recPS[:0], st.recW[:0], st.touched[:0]
		gotOK := st.greedyBalanced(req, nodes, p, w)
		if gotOK != wantOK {
			t.Fatalf("seed %d (%d nodes, p=%d w=%d): scan ok=%v, heap ok=%v", seed, n, p, w, wantOK, gotOK)
		}
		if !gotOK {
			failed++
			continue
		}
		placed++
		got := Placement{PSOnNode: st.recPS, WorkersOnNode: st.recW}
		for _, node := range st.recNodes {
			got.NodeIDs = append(got.NodeIDs, node.ID)
		}
		if !slices.Equal(want.NodeIDs, got.NodeIDs) || !slices.Equal(want.PSOnNode, got.PSOnNode) ||
			!slices.Equal(want.WorkersOnNode, got.WorkersOnNode) {
			t.Fatalf("seed %d (%d nodes, p=%d w=%d): placements diverge\nscan: %v\nheap: %v", seed, n, p, w, want, got)
		}
	}
	if placed == 0 || failed == 0 || wide == 0 {
		t.Fatalf("instances cover too little: %d placed, %d infeasible, %d on more than p+w+16 nodes", placed, failed, wide)
	}
	t.Logf("%d placed, %d infeasible, %d on more than p+w+16 nodes", placed, failed, wide)
}

// TestGainHeapOpsAllocationFree is the regression guard for the satellite
// fix: the old container/heap-based gainHeap boxed every candidate through
// interface{}, allocating on each Push/Pop. The typed heap's operations must
// not allocate at all.
func TestGainHeapOpsAllocationFree(t *testing.T) {
	const n = 64
	buf := make(gainHeap, 0, n)
	r := rand.New(rand.NewSource(7))
	gains := make([]float64, n)
	for i := range gains {
		gains[i] = r.Float64()
	}
	allocs := testing.AllocsPerRun(200, func() {
		h := buf[:0]
		for i := 0; i < n; i++ {
			h = append(h, heapEntry{gain: gains[i], run: int32(i)})
		}
		h.init()
		for i := 0; i < n/2; i++ {
			h.replaceTop(heapEntry{gain: gains[i] / 2, run: int32(i)})
		}
		for len(h) > 0 {
			h = h.popTop()
		}
	})
	if allocs != 0 {
		t.Errorf("heap operations allocated %.1f times per run, want 0", allocs)
	}
}

// TestGainHeapOrdering cross-checks the manual sift routines against a
// straightforward sort: popping everything must yield gains in descending
// order with run-index ties ascending.
func TestGainHeapOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(50)
		h := make(gainHeap, 0, n)
		for i := 0; i < n; i++ {
			g := float64(r.Intn(10)) // coarse values force ties
			h = append(h, heapEntry{gain: g, run: int32(i)})
		}
		h.init()
		var prev *heapEntry
		for len(h) > 0 {
			e := h[0]
			if prev != nil {
				if e.gain > prev.gain {
					t.Fatalf("trial %d: gain out of order: %v after %v", trial, e, *prev)
				}
				if e.gain == prev.gain && e.run < prev.run {
					t.Fatalf("trial %d: tie-break out of order: run %d after %d",
						trial, e.run, prev.run)
				}
			}
			cp := e
			prev = &cp
			h = h.popTop()
		}
	}
}
