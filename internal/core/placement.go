package core

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"optimus/internal/cluster"
	"optimus/internal/obs"
)

// PlacementRequest asks the placer to deploy a job's granted allocation.
type PlacementRequest struct {
	JobID            int
	Alloc            Allocation
	WorkerRes, PSRes cluster.Resources
}

// Placement records where one job's tasks landed: parallel slices of node
// IDs and per-node PS/worker counts. Even reports that the §4.2 placer's
// exact Theorem-1 even split produced it, not its greedy fallback (or a
// baseline placer).
type Placement struct {
	NodeIDs       []string
	PSOnNode      []int
	WorkersOnNode []int
	Even          bool
}

// Servers returns the number of distinct servers used.
func (p Placement) Servers() int { return len(p.NodeIDs) }

// Spread is the audit evenness metric: the difference between the most- and
// least-loaded servers of the placement, counting both task kinds. A
// Theorem-1 even split has spread ≤ 1 per task kind, so ≤ 2 total; large
// values flag fragmented greedy placements.
func (p Placement) Spread() int {
	if len(p.NodeIDs) == 0 {
		return 0
	}
	lo, hi := -1, 0
	for i := range p.NodeIDs {
		t := p.PSOnNode[i] + p.WorkersOnNode[i]
		hi = max(hi, t)
		if lo < 0 || t < lo {
			lo = t
		}
	}
	return hi - lo
}

// Counts returns the placed totals.
func (p Placement) Counts() (ps, workers int) {
	for _, v := range p.PSOnNode {
		ps += v
	}
	for _, v := range p.WorkersOnNode {
		workers += v
	}
	return ps, workers
}

// demand returns the job's total resource demand, used for smallest-first
// ordering.
func (r PlacementRequest) demand() cluster.Resources {
	return r.WorkerRes.Scale(float64(r.Alloc.Workers)).
		Add(r.PSRes.Scale(float64(r.Alloc.PS)))
}

// placeRec is one committed placement expressed as a segment of the state's
// record arrays: recNodes/recPS/recW[off : off+n]. Placements are
// materialized from the records in a single pass at the end of Place, so the
// search/commit loop itself performs no per-job allocation.
type placeRec struct {
	job  int
	off  int
	n    int
	even bool
}

// PlaceState owns the scratch memory of the §4.2 placer: the request
// ordering, a free-CPU-sorted node index kept across calls, the per-attempt
// count/spare buffers of the greedy fallback, and the record arrays the
// chosen placements are staged in before materialization. The zero value is
// ready to use; a state is not safe for concurrent use.
//
// The index holds positions into the cluster's Nodes(), with each node's
// available CPU and ID rank cached beside it, so the §4.2 order compares a
// float and then an int. A commit changes only the nodes it touched, and
// resift sinks just those, so each request sees exactly the ordering a full
// re-sort would produce. Place refreshes the CPU keys in one pass and sorts
// only when the index is out of order: a shrink retry, which places again on
// the cluster the last call left, pays O(N) rather than O(N log N).
type PlaceState struct {
	// Trace, when non-nil, receives one "place-kernel" span per Place call.
	// It defaults to nil; the nil path performs no extra work.
	Trace *obs.Tracer

	// The placer's smallest-dominant-share-first ordering: order is a
	// permutation of the request indices, sorted by their precomputed
	// shares, so the sort moves int32s, not requests.
	order   []int32
	share   []float64
	cl      *cluster.Cluster // the cluster rank was built for
	index   []int32          // positions into cl.Nodes(): available CPU desc, node ID asc
	cpu     []float64        // by position: Available()[cluster.CPU]
	rank    []int32          // by position: the rank of the node's ID
	touched []int            // index positions staged by the current placeOne, ascending
	view    []*cluster.Node  // greedyBalanced's candidates, in index order
	psOn    []int
	wOn     []int
	spare   []cluster.Resources
	heap    []int // greedyBalanced's candidate heap

	// Staged placements of the current call: placeOne appends (node, ps, w)
	// rows, placeRecs segments them per job, materialize() turns them into
	// the caller-owned map with exactly four allocations (map + 3 arenas).
	recNodes []*cluster.Node
	recPS    []int
	recW     []int
	recs     []placeRec
}

// NewPlaceState returns an empty placer state.
func NewPlaceState() *PlaceState { return &PlaceState{} }

// compare is the §4.2 server order on node positions: descending available
// CPU, ties broken by node ID. It matches cluster.SortedByAvailable(cluster.CPU)
// and is a total order (IDs are unique), so any sort produces one canonical
// sequence.
func (st *PlaceState) compare(a, b int32) int {
	if ca, cb := st.cpu[a], st.cpu[b]; ca != cb {
		return cmp.Compare(cb, ca)
	}
	return int(st.rank[a] - st.rank[b])
}

// Place implements the §4.2 placement scheme. Servers are sorted in
// descending order of available CPU; jobs are placed smallest-demand-first
// (starvation avoidance); each job uses the smallest k such that the top-k
// servers can host an even split of its PS and workers (Theorem 1), with
// remainders assigned to the most-available servers. Placed resources are
// allocated on the cluster's nodes. Jobs that cannot be placed are returned
// in unplaced and must be paused until the next interval (§4.2).
//
// The returned map, Placements, and unplaced slice are caller-owned; only
// the state's internal scratch is reused between calls.
func (st *PlaceState) Place(reqs []PlacementRequest, c *cluster.Cluster) (map[int]Placement, []int) {
	sp := st.Trace.Begin("place-kernel")
	defer st.Trace.End(sp)
	// Smallest demand first: dominant share, then job ID, then request
	// index, which is the order a stable sort on (share, job ID) gives.
	capacity := c.Capacity()
	st.order, st.share = st.order[:0], st.share[:0]
	for i, r := range reqs {
		share, _ := r.demand().DominantShare(capacity)
		st.order = append(st.order, int32(i))
		st.share = append(st.share, share)
	}
	slices.SortFunc(st.order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(st.share[a], st.share[b]),
			reqs[a].JobID-reqs[b].JobID, int(a-b))
	})
	st.sortIndex(c)
	st.recNodes, st.recPS, st.recW, st.recs = st.recNodes[:0], st.recPS[:0], st.recW[:0], st.recs[:0]

	var unplaced []int
	for _, k := range st.order {
		req := &reqs[k]
		if req.Alloc.PS <= 0 || req.Alloc.Workers <= 0 || !st.placeStep(*req, c) {
			unplaced = append(unplaced, req.JobID)
		}
	}
	return st.materialize(len(reqs)), unplaced
}

// sortIndex brings the node index up to date with c. The ID ranks are
// rebuilt for a new cluster, or one that grew (nodes are never removed, and
// an ID never changes once added); every node's CPU key is read afresh; and
// the index is sorted only if it is not already. Since the order is total, a
// sorted permutation of the nodes is the one a fresh sort would give.
func (st *PlaceState) sortIndex(c *cluster.Cluster) {
	nodes := c.Nodes()
	if c != st.cl || len(st.rank) != len(nodes) {
		st.cl = c
		st.index = slices.Grow(st.index[:0], len(nodes))
		for i := range nodes {
			st.index = append(st.index, int32(i))
		}
		slices.SortFunc(st.index, func(a, b int32) int { return strings.Compare(nodes[a].ID, nodes[b].ID) })
		st.rank = slices.Grow(st.rank[:0], len(nodes))[:len(nodes)]
		for r, i := range st.index {
			st.rank[i] = int32(r)
		}
	}
	st.cpu = slices.Grow(st.cpu[:0], len(nodes))
	for _, n := range nodes {
		st.cpu = append(st.cpu, n.Available()[cluster.CPU])
	}
	if !slices.IsSortedFunc(st.index, st.compare) {
		slices.SortFunc(st.index, st.compare)
	}
}

// placeStep searches, stages, and commits one request against the current
// index state: the placeOne search appends the chosen rows to the record
// arrays, the commit reserves them on the cluster, and the touched nodes are
// re-sifted back into sorted order. Returns whether the job was placed; on
// failure the staged rows are rolled back.
func (st *PlaceState) placeStep(req PlacementRequest, c *cluster.Cluster) bool {
	off := len(st.recNodes)
	st.touched = st.touched[:0]
	even, ok := st.placeOne(req)
	if !ok {
		st.recNodes = st.recNodes[:off]
		st.recPS = st.recPS[:off]
		st.recW = st.recW[:off]
		return false
	}
	rec := placeRec{job: req.JobID, off: off, n: len(st.recNodes) - off, even: even}
	st.commitRec(req, rec, c)
	st.recs = append(st.recs, rec)
	st.resift()
	return true
}

// commitRec reserves a staged placement's tasks on its nodes, PS tasks
// first, matching the reference commit order task by task (the arithmetic
// order matters for byte-identical float state).
func (st *PlaceState) commitRec(req PlacementRequest, rec placeRec, c *cluster.Cluster) {
	for i := rec.off; i < rec.off+rec.n; i++ {
		n := st.recNodes[i]
		for t := 0; t < st.recPS[i]; t++ {
			if err := n.Allocate(req.PSRes); err != nil {
				// placeOne verified the fit; failure here means the cluster
				// changed concurrently, which Place does not support.
				panic("core: placement commit failed: " + err.Error())
			}
		}
		for t := 0; t < st.recW[i]; t++ {
			if err := n.Allocate(req.WorkerRes); err != nil {
				panic("core: placement commit failed: " + err.Error())
			}
		}
	}
}

// materialize builds the caller-owned result from the staged records: one
// node-ID arena, two count arenas, and the map — four allocations total,
// independent of job count beyond the map's buckets. Each Placement's slices
// are capped sub-slices of the arenas, so callers appending to one placement
// cannot bleed into the next.
func (st *PlaceState) materialize(sizeHint int) map[int]Placement {
	placements := make(map[int]Placement, sizeHint)
	total := len(st.recNodes)
	ids := make([]string, total)
	ps := make([]int, total)
	ws := make([]int, total)
	copy(ps, st.recPS)
	copy(ws, st.recW)
	for i, n := range st.recNodes {
		ids[i] = n.ID
	}
	for _, rec := range st.recs {
		end := rec.off + rec.n
		placements[rec.job] = Placement{
			NodeIDs:       ids[rec.off:end:end],
			PSOnNode:      ps[rec.off:end:end],
			WorkersOnNode: ws[rec.off:end:end],
			Even:          rec.even,
		}
	}
	return placements
}

// Place is the stateless convenience wrapper: each call runs on a fresh
// PlaceState. Hot paths should hold a PlaceState and call its method.
func Place(reqs []PlacementRequest, c *cluster.Cluster) (map[int]Placement, []int) {
	var st PlaceState
	return st.Place(reqs, c)
}

// Headroom is a necessary condition for placing one job on a cluster's free
// capacity, taken in one pass over the nodes: how many workers and how many
// PS the nodes could host, each node counted alone, and the summed free
// vector. Place is all-or-nothing and puts no more on a node than it has
// free, so a request Admits rejects stays unplaced; one it admits may not pack.
type Headroom struct {
	workerRes, psRes, free cluster.Resources
	workers, ps            float64
}

// NewHeadroom takes c's headroom for tasks of the given profiles. A node's
// negative (over-reserved) availability counts as none, and each dimension is
// widened by one part in a million plus 1e-6, far above Fits's tolerance and
// the placer's rounding, so the bound never rejects what Place would place.
func NewHeadroom(workerRes, psRes cluster.Resources, c *cluster.Cluster) Headroom {
	h := Headroom{workerRes: workerRes, psRes: psRes}
	for _, n := range c.Nodes() {
		kw, kp := math.Inf(1), math.Inf(1) // +Inf for a profile that uses nothing
		for d, v := range n.Available() {
			v = max(v, 0)*(1+1e-6) + 1e-6
			if workerRes[d] > 0 {
				kw = min(kw, math.Floor(v/workerRes[d]))
			}
			if psRes[d] > 0 {
				kp = min(kp, math.Floor(v/psRes[d]))
			}
			h.free[d] += v
		}
		h.workers += kw
		h.ps += kp
	}
	return h
}

// Admits reports whether a passes the bound: no more workers or PS than the
// nodes could host, and its total demand within the summed free capacity.
func (h Headroom) Admits(a Allocation) bool {
	req := PlacementRequest{Alloc: a, WorkerRes: h.workerRes, PSRes: h.psRes}
	return float64(a.Workers) <= h.workers && float64(a.PS) <= h.ps && req.demand().Fits(h.free)
}

// resift restores sorted order after a commit shrank the staged nodes'
// availability. A node that lost capacity can only sink toward the tail of
// the descending-availability order, and the staged positions (recorded by
// the search as it walked the index) are ascending — so processing them from
// the right, each node rereads its CPU key, binary-searches its insertion
// point in the already-sorted suffix and sinks there with one memmove of
// int32 positions. The comparator is a total order, so the result is exactly
// what a full re-sort would produce.
func (st *PlaceState) resift() {
	index, nodes := st.index, st.cl.Nodes()
	for t := len(st.touched) - 1; t >= 0; t-- {
		i := st.touched[t]
		n := index[i]
		st.cpu[n] = nodes[n].Available()[cluster.CPU]
		lo, hi := i+1, len(index)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if st.compare(index[mid], n) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > i+1 {
			copy(index[i:], index[i+1:lo])
			index[lo-1] = n
		}
	}
	st.touched = st.touched[:0]
}

// placeOne finds the smallest k such that the first k index nodes fit an
// even split of the job, staging the chosen rows in the record arrays. When
// no exact even split exists on any prefix (per-node capacities may be too
// uneven), it falls back to a greedy placement that keeps per-node counts as
// balanced as the capacities allow — preserving Theorem 1's spirit while
// guaranteeing progress whenever the job fits at all. The first result
// reports whether the Theorem-1 even-split path produced the placement
// (Placement.Even).
func (st *PlaceState) placeOne(req PlacementRequest) (even, ok bool) {
	p, w := req.Alloc.PS, req.Alloc.Workers
	nodes := st.cl.Nodes()
	// Searching every prefix is O(N²) per job on a full cluster. Beyond
	// k = p+w each server hosts at most one task of each kind, so growing k
	// further only helps by swapping in different servers — territory the
	// greedy fallback covers directly. Bounding the search keeps a scheduling
	// cycle near-linear in cluster size (the Fig-12 scalability property).
	top := min(p+w+16, len(st.index))
	if k, ok := st.evenPrefix(req, nodes, top, p, w); ok {
		// Every one of the k nodes is staged, like the reference
		// construction, even one that receives no task of a kind.
		for i, pos := range st.index[:k] {
			ps, workers := evenSplit(i, k, p, w)
			st.recNodes = append(st.recNodes, nodes[pos])
			st.recPS = append(st.recPS, ps)
			st.recW = append(st.recW, workers)
			st.touched = append(st.touched, i)
		}
		return true, true
	}
	st.view = st.view[:0]
	for _, i := range st.index[:top] {
		st.view = append(st.view, nodes[i])
	}
	if st.greedyBalanced(req, st.view, p, w) {
		return false, true
	}
	if top < len(st.index) {
		// The top-K slice may just have been unlucky with fragmentation; try
		// the complete ordering before pausing the job.
		for _, i := range st.index[top:] {
			st.view = append(st.view, nodes[i])
		}
		return false, st.greedyBalanced(req, st.view, p, w)
	}
	return false, false
}

// evenPrefix returns the smallest k ≤ bound such that the first k index
// nodes fit an even split of p PS and w workers (Theorem 1). Node i's share,
// ⌈(p−i)/k⌉ PS and ⌈(w−i)/k⌉ workers, only shrinks as k grows, so with
// non-negative demands a node that fits at k fits at every larger k. The walk
// advances i while node i fits at k, else k: at most 2·bound fit checks.
func (st *PlaceState) evenPrefix(req PlacementRequest, nodes []*cluster.Node, bound, p, w int) (int, bool) {
	for i, k := 0, 1; k <= bound; {
		pi, wi := evenSplit(i, k, p, w)
		need := req.PSRes.Scale(float64(pi)).Add(req.WorkerRes.Scale(float64(wi)))
		if !need.Fits(nodes[st.index[i]].Available()) {
			k++
			continue
		}
		if i++; i == k {
			return k, true
		}
	}
	return 0, false
}

// greedyBalanced assigns tasks one at a time to the fitting node currently
// hosting the fewest tasks of this job (ties broken by available CPU, then
// node order), staging the resulting rows on success. Workers go first since
// they are usually the larger profile.
//
// The fitting nodes of each task kind sit in a min-heap on exactly that key,
// so each task takes the top instead of rescanning every node. Only the
// chosen node's key changes, and only grows (one more task, less spare CPU),
// so it sifts down; spare capacity only shrinks, so a node that stops
// fitting the profile leaves the heap for good. An attempt costs
// O(N + T log N) rather than O(N·T) and picks the same node for every task.
func (st *PlaceState) greedyBalanced(req PlacementRequest, nodes []*cluster.Node, p, w int) bool {
	k := len(nodes)
	h := greedyHeap{psOn: resizeInts(&st.psOn, k), wOn: resizeInts(&st.wOn, k)}
	st.spare = slices.Grow(st.spare[:0], k)[:k]
	h.spare = st.spare
	for i, n := range nodes {
		h.spare[i] = n.Available()
	}
	assign := func(res cluster.Resources, counts []int, tasks int) bool {
		h.pos = st.heap[:0]
		for i := range h.spare {
			if res.Fits(h.spare[i]) {
				h.pos = append(h.pos, i)
			}
		}
		st.heap = h.pos
		for i := len(h.pos)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
		for t := 0; t < tasks; t++ {
			if len(h.pos) == 0 {
				return false
			}
			best := h.pos[0]
			h.spare[best] = h.spare[best].Sub(res)
			counts[best]++
			if !res.Fits(h.spare[best]) {
				last := len(h.pos) - 1
				h.pos[0] = h.pos[last]
				h.pos = h.pos[:last]
			}
			h.down(0)
		}
		return true
	}
	if !assign(req.WorkerRes, h.wOn, w) || !assign(req.PSRes, h.psOn, p) {
		return false
	}
	for i, n := range nodes {
		if h.psOn[i] == 0 && h.wOn[i] == 0 {
			continue
		}
		st.recNodes = append(st.recNodes, n)
		st.recPS = append(st.recPS, h.psOn[i])
		st.recW = append(st.recW, h.wOn[i])
		st.touched = append(st.touched, i)
	}
	return true
}

// greedyHeap is greedyBalanced's candidate heap: node positions ordered by
// (tasks of this job on the node, spare CPU descending, position).
type greedyHeap struct {
	pos       []int
	psOn, wOn []int
	spare     []cluster.Resources
}

// less is the greedy scan's preference: fewer tasks of this job, then more
// spare CPU, then the earlier node.
func (h *greedyHeap) less(a, b int) bool {
	if ca, cb := h.psOn[a]+h.wOn[a], h.psOn[b]+h.wOn[b]; ca != cb {
		return ca < cb
	}
	if sa, sb := h.spare[a][cluster.CPU], h.spare[b][cluster.CPU]; sa != sb {
		return sa > sb
	}
	return a < b
}

// down restores heap order below slot i after its key grew.
func (h *greedyHeap) down(i int) {
	n := len(h.pos)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(h.pos[r], h.pos[l]) {
			best = r
		}
		if !h.less(h.pos[best], h.pos[i]) {
			return
		}
		h.pos[i], h.pos[best] = h.pos[best], h.pos[i]
		i = best
	}
}

// resizeInts returns *s resized to n elements, all zero, growing the backing
// array only when needed.
func resizeInts(s *[]int, n int) []int {
	*s = slices.Grow((*s)[:0], n)[:n]
	clear(*s)
	return *s
}

// evenSplit returns the PS and worker counts node i receives when p PS and
// w workers are split evenly over k servers, remainders going to the
// most-available servers (which come first in the sorted slice).
func evenSplit(i, k, p, w int) (ps, workers int) {
	ps = p / k
	if i < p%k {
		ps++
	}
	workers = w / k
	if i < w%k {
		workers++
	}
	return ps, workers
}
