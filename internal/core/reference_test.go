package core

// This file preserves the pre-incremental Allocate and Place implementations
// verbatim (modulo ref* renames) as an executable specification. The
// property tests in kernel_ref_test.go drive both versions over seeded
// random workloads and require identical outputs, so any behavioural drift
// in the optimized kernels fails loudly rather than silently skewing
// exhibit tables.

import (
	"container/heap"
	"math"
	"sort"

	"optimus/internal/cluster"
)

type refCandidate struct {
	job   *JobInfo
	kind  gainKind
	gain  float64
	alloc Allocation
}

type refGainHeap []refCandidate

func (h refGainHeap) Len() int            { return len(h) }
func (h refGainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h refGainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refGainHeap) Push(x interface{}) { *h = append(*h, x.(refCandidate)) }
func (h *refGainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func refBestGain(j *JobInfo, a Allocation, capacity cluster.Resources) (gainKind, float64) {
	base := remainingTime(j, a.PS, a.Workers)

	gw := math.Inf(-1)
	if j.MaxWorkers == 0 || a.Workers < j.MaxWorkers {
		tw := remainingTime(j, a.PS, a.Workers+1)
		gw = normalizedGain(base, tw, j.WorkerRes, capacity)
	}
	gp := math.Inf(-1)
	if j.MaxPS == 0 || a.PS < j.MaxPS {
		tp := remainingTime(j, a.PS+1, a.Workers)
		gp = normalizedGain(base, tp, j.PSRes, capacity)
	}

	prio := j.Priority
	if prio == 0 {
		prio = 1
	}
	if gw >= gp {
		return addWorker, gw * prio
	}
	return addPS, gp * prio
}

func refOtherGain(j *JobInfo, a Allocation, capacity cluster.Resources, tried gainKind) (gainKind, float64) {
	base := remainingTime(j, a.PS, a.Workers)
	prio := j.Priority
	if prio == 0 {
		prio = 1
	}
	if tried == addWorker {
		if j.MaxPS != 0 && a.PS >= j.MaxPS {
			return addPS, math.Inf(-1)
		}
		tp := remainingTime(j, a.PS+1, a.Workers)
		return addPS, normalizedGain(base, tp, j.PSRes, capacity) * prio
	}
	if j.MaxWorkers != 0 && a.Workers >= j.MaxWorkers {
		return addWorker, math.Inf(-1)
	}
	tw := remainingTime(j, a.PS, a.Workers+1)
	return addWorker, normalizedGain(base, tw, j.WorkerRes, capacity) * prio
}

func refAllocate(jobs []*JobInfo, capacity cluster.Resources) map[int]Allocation {
	out := make(map[int]Allocation, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	remaining := capacity

	ordered := make([]*JobInfo, len(jobs))
	copy(ordered, jobs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	var active []*JobInfo
	for _, j := range ordered {
		seed := j.WorkerRes.Add(j.PSRes)
		if !seed.Fits(remaining) {
			out[j.ID] = Allocation{}
			continue
		}
		remaining = remaining.Sub(seed)
		out[j.ID] = Allocation{PS: 1, Workers: 1}
		active = append(active, j)
	}

	h := make(refGainHeap, 0, len(active))
	for _, j := range active {
		kind, gain := refBestGain(j, out[j.ID], capacity)
		if gain > 0 {
			h = append(h, refCandidate{job: j, kind: kind, gain: gain, alloc: out[j.ID]})
		}
	}
	heap.Init(&h)

	for h.Len() > 0 {
		c := heap.Pop(&h).(refCandidate)
		cur := out[c.job.ID]
		if c.alloc != cur {
			kind, gain := refBestGain(c.job, cur, capacity)
			if gain > 0 {
				heap.Push(&h, refCandidate{job: c.job, kind: kind, gain: gain, alloc: cur})
			}
			continue
		}
		var req cluster.Resources
		if c.kind == addWorker {
			req = c.job.WorkerRes
		} else {
			req = c.job.PSRes
		}
		if !req.Fits(remaining) {
			if alt, gain := refOtherGain(c.job, cur, capacity, c.kind); gain > 0 {
				var altReq cluster.Resources
				if alt == addWorker {
					altReq = c.job.WorkerRes
				} else {
					altReq = c.job.PSRes
				}
				if altReq.Fits(remaining) {
					heap.Push(&h, refCandidate{job: c.job, kind: alt, gain: gain, alloc: cur})
				}
			}
			continue
		}
		remaining = remaining.Sub(req)
		if c.kind == addWorker {
			cur.Workers++
		} else {
			cur.PS++
		}
		out[c.job.ID] = cur
		if kind, gain := refBestGain(c.job, cur, capacity); gain > 0 {
			heap.Push(&h, refCandidate{job: c.job, kind: kind, gain: gain, alloc: cur})
		}
	}
	return out
}

func refPlace(reqs []PlacementRequest, c *cluster.Cluster) (map[int]Placement, []int) {
	placements := make(map[int]Placement, len(reqs))
	var unplaced []int

	ordered := make([]PlacementRequest, len(reqs))
	copy(ordered, reqs)
	capacity := c.Capacity()
	sort.SliceStable(ordered, func(i, j int) bool {
		di, _ := ordered[i].demand().DominantShare(capacity)
		dj, _ := ordered[j].demand().DominantShare(capacity)
		if di != dj {
			return di < dj
		}
		return ordered[i].JobID < ordered[j].JobID
	})

	for _, req := range ordered {
		if req.Alloc.PS <= 0 || req.Alloc.Workers <= 0 {
			unplaced = append(unplaced, req.JobID)
			continue
		}
		nodes := refTopAvailable(c, req.Alloc.PS+req.Alloc.Workers+16)
		pl, ok := refPlaceOne(req, nodes)
		if !ok {
			pl, ok = refPlaceOne(req, c.SortedByAvailable(cluster.CPU))
		}
		if !ok {
			unplaced = append(unplaced, req.JobID)
			continue
		}
		commitPlacement(req, pl, c)
		placements[req.JobID] = pl
	}
	return placements, unplaced
}

func refTopAvailable(c *cluster.Cluster, k int) []*cluster.Node {
	all := c.Nodes()
	if k >= len(all) {
		return c.SortedByAvailable(cluster.CPU)
	}
	less := func(a, b *cluster.Node) bool {
		aa, ab := a.Available()[cluster.CPU], b.Available()[cluster.CPU]
		if aa != ab {
			return aa > ab
		}
		return a.ID < b.ID
	}
	top := make([]*cluster.Node, 0, k)
	for _, n := range all {
		if len(top) < k {
			top = append(top, n)
			for i := len(top) - 1; i > 0 && less(top[i], top[i-1]); i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			continue
		}
		if !less(n, top[k-1]) {
			continue
		}
		top[k-1] = n
		for i := k - 1; i > 0 && less(top[i], top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	return top
}

func refPlaceOne(req PlacementRequest, nodes []*cluster.Node) (Placement, bool) {
	p, w := req.Alloc.PS, req.Alloc.Workers
	maxK := p + w + 16
	if maxK > len(nodes) {
		maxK = len(nodes)
	}
	for k := 1; k <= maxK; k++ {
		pl, ok := refTryEvenSplit(req, nodes[:k], p, w)
		if ok {
			return pl, true
		}
	}
	return refGreedyBalanced(req, nodes, p, w)
}

func refGreedyBalanced(req PlacementRequest, nodes []*cluster.Node, p, w int) (Placement, bool) {
	k := len(nodes)
	psOn := make([]int, k)
	wOn := make([]int, k)
	spare := make([]cluster.Resources, k)
	for i, n := range nodes {
		spare[i] = n.Available()
	}
	assign := func(res cluster.Resources, counts []int) bool {
		best := -1
		for i := range nodes {
			if !res.Fits(spare[i]) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			ci, cb := psOn[i]+wOn[i], psOn[best]+wOn[best]
			if ci < cb || (ci == cb && spare[i][cluster.CPU] > spare[best][cluster.CPU]) {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		spare[best] = spare[best].Sub(res)
		counts[best]++
		return true
	}
	for t := 0; t < w; t++ {
		if !assign(req.WorkerRes, wOn) {
			return Placement{}, false
		}
	}
	for t := 0; t < p; t++ {
		if !assign(req.PSRes, psOn) {
			return Placement{}, false
		}
	}
	var pl Placement
	for i, n := range nodes {
		if psOn[i] == 0 && wOn[i] == 0 {
			continue
		}
		pl.NodeIDs = append(pl.NodeIDs, n.ID)
		pl.PSOnNode = append(pl.PSOnNode, psOn[i])
		pl.WorkersOnNode = append(pl.WorkersOnNode, wOn[i])
	}
	return pl, true
}

func refTryEvenSplit(req PlacementRequest, nodes []*cluster.Node, p, w int) (Placement, bool) {
	k := len(nodes)
	pl := Placement{
		NodeIDs:       make([]string, k),
		PSOnNode:      make([]int, k),
		WorkersOnNode: make([]int, k),
		Even:          true,
	}
	for i, n := range nodes {
		pl.NodeIDs[i] = n.ID
		pl.PSOnNode[i] = p / k
		if i < p%k {
			pl.PSOnNode[i]++
		}
		pl.WorkersOnNode[i] = w / k
		if i < w%k {
			pl.WorkersOnNode[i]++
		}
	}
	for i, n := range nodes {
		need := req.PSRes.Scale(float64(pl.PSOnNode[i])).
			Add(req.WorkerRes.Scale(float64(pl.WorkersOnNode[i])))
		if !need.Fits(n.Available()) {
			return Placement{}, false
		}
	}
	return pl, true
}

// commitPlacement reserves the placed tasks on the cluster nodes, PS tasks
// first — the per-task arithmetic order Place's commitRec reproduces.
func commitPlacement(req PlacementRequest, pl Placement, c *cluster.Cluster) {
	for i, id := range pl.NodeIDs {
		n := c.Node(id)
		for t := 0; t < pl.PSOnNode[i]; t++ {
			if err := n.Allocate(req.PSRes); err != nil {
				// tryEvenSplit verified the fit; failure here means the
				// cluster changed concurrently, which Place does not support.
				panic("core: placement commit failed: " + err.Error())
			}
		}
		for t := 0; t < pl.WorkersOnNode[i]; t++ {
			if err := n.Allocate(req.WorkerRes); err != nil {
				panic("core: placement commit failed: " + err.Error())
			}
		}
	}
}

// refEvenPrefix is the Theorem-1 prefix search PlaceState.evenPrefix
// replaced: every k from 1 to bound, each k-node prefix of the sorted nodes
// tested whole. It returns the smallest k whose even split fits.
func refEvenPrefix(req PlacementRequest, nodes []*cluster.Node, bound, p, w int) (int, bool) {
	for k := 1; k <= bound; k++ {
		if evenSplitFits(req, nodes[:k], p, w) {
			return k, true
		}
	}
	return 0, false
}

// evenSplitFits checks whether an even split of p PS and w workers over the
// given servers fits, without materializing the placement.
func evenSplitFits(req PlacementRequest, nodes []*cluster.Node, p, w int) bool {
	k := len(nodes)
	for i, n := range nodes {
		pi, wi := evenSplit(i, k, p, w)
		need := req.PSRes.Scale(float64(pi)).
			Add(req.WorkerRes.Scale(float64(wi)))
		if !need.Fits(n.Available()) {
			return false
		}
	}
	return true
}
