// Package core implements the primary contribution of the Optimus paper:
// the dynamic scheduling algorithm of §4, consisting of marginal-gain-based
// resource allocation (§4.1) and the Theorem-1 task placement scheme (§4.2).
// It is deliberately independent of the simulator and of the real PS
// framework — both feed it JobInfo views and consume its decisions.
package core

import (
	"math"
	"sort"

	"optimus/internal/cluster"
	"optimus/internal/obs"
)

// JobInfo is the scheduler's view of one active job in a scheduling
// interval: how much work remains (from the §3.1 convergence estimator) and
// how fast the job would run under any (p, w) (from the §3.2 speed model).
type JobInfo struct {
	ID int
	// RemainingWork is Q_j: outstanding training steps until convergence.
	RemainingWork float64
	// Speed is the fitted f(p, w) in steps/second. It must be safe to call
	// with any non-negative arguments and return 0 when progress is
	// impossible.
	Speed func(p, w int) float64
	// WorkerRes / PSRes are the per-task resource profiles (N_j and O_j).
	WorkerRes, PSRes cluster.Resources
	// Priority scales the job's marginal gain; §4.1 suggests 0.95 for jobs
	// in their beginning state (large prediction errors). Zero means 1.0.
	Priority float64
	// MaxWorkers / MaxPS cap the allocation (0 = no cap). Synchronous jobs
	// cap workers at the global batch size.
	MaxWorkers, MaxPS int
}

// Allocation is the number of parameter servers and workers granted to a
// job. The JSON tags fix the wire shape used by the optimusd API and its
// state snapshots.
type Allocation struct {
	PS      int `json:"ps"`
	Workers int `json:"workers"`
}

// Tasks returns the total number of tasks in the allocation.
func (a Allocation) Tasks() int { return a.PS + a.Workers }

// remainingTime returns Q/f(p,w), with +Inf when the job cannot progress.
func remainingTime(j *JobInfo, p, w int) float64 {
	f := j.Speed(p, w)
	if f <= 0 || math.IsNaN(f) {
		return math.Inf(1)
	}
	return j.RemainingWork / f
}

// gainKind distinguishes the two grant actions of §4.1.
type gainKind int

const (
	addWorker gainKind = iota
	addPS
)

// heapEntry is the best pending grant for one job run. Entries are always
// current: the heap holds at most one entry per job, and the only job whose
// gain changes between pops is the one just granted — its entry is replaced
// at the top in the same operation. `after` carries the remaining time the
// entry's action would leave the job with, so granting it never re-evaluates
// the (pure) speed model for a configuration already probed.
type heapEntry struct {
	gain  float64
	after float64
	kind  gainKind
	run   int32 // index into AllocState.runs
}

// gainHeap is a typed max-heap of heapEntry (gain descending, ties broken by
// run index for determinism). It replaces the previous container/heap
// implementation, whose interface{}-based Push/Pop boxed every candidate and
// allocated on each heap operation. Only three operations are needed:
// heapify after bulk append, replace-top, and pop-top — none allocate.
type gainHeap []heapEntry

func (h gainHeap) less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].run < h[j].run
}

func (h gainHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h gainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// replaceTop overwrites the maximum element and restores heap order.
func (h gainHeap) replaceTop(e heapEntry) {
	h[0] = e
	h.siftDown(0)
}

// popTop removes the maximum element, returning the shortened heap.
func (h gainHeap) popTop() gainHeap {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return h
}

// bestGainFrom computes the larger of the two marginal gains (9) for a job
// at its current allocation, normalized by the dominant-resource share of
// the task being added (the DRF-style normalization of §4.1, which makes
// gains comparable across heterogeneous task profiles). The job's current
// remaining time is supplied by the caller (the allocator carries it across
// grants instead of re-deriving it from the speed model); the result also
// carries the remaining time the winning action would leave the job with.
func bestGainFrom(j *JobInfo, a Allocation, base float64, capacity cluster.Resources) (gainKind, float64, float64) {
	gw, tw := math.Inf(-1), math.Inf(1)
	if j.MaxWorkers == 0 || a.Workers < j.MaxWorkers {
		tw = remainingTime(j, a.PS, a.Workers+1)
		gw = normalizedGain(base, tw, j.WorkerRes, capacity)
	}
	gp, tp := math.Inf(-1), math.Inf(1)
	if j.MaxPS == 0 || a.PS < j.MaxPS {
		tp = remainingTime(j, a.PS+1, a.Workers)
		gp = normalizedGain(base, tp, j.PSRes, capacity)
	}

	prio := j.Priority
	if prio == 0 {
		prio = 1
	}
	if gw >= gp {
		return addWorker, gw * prio, tw
	}
	return addPS, gp * prio, tp
}

// normalizedGain is (t_before − t_after) / dominantShare(taskRes).
func normalizedGain(before, after float64, taskRes, capacity cluster.Resources) float64 {
	if math.IsInf(after, 1) {
		return math.Inf(-1) // adding the task still yields no progress
	}
	var diff float64
	if math.IsInf(before, 1) {
		// From stalled to progressing: infinitely valuable; use a huge
		// finite gain so ordering among such jobs still considers after.
		diff = 1e18 / (1 + after)
	} else {
		diff = before - after
	}
	share, _ := taskRes.DominantShare(capacity)
	if share <= 0 {
		share = 1e-12
	}
	return diff / share
}

// allocRun is the per-job working state of one Allocate invocation: the
// allocation granted so far and the remaining completion time it implies
// (kept current so gain evaluations never re-probe the base configuration).
type allocRun struct {
	job    *JobInfo
	alloc  Allocation
	remain float64
}

// AllocState owns the scratch memory of the §4.1 allocator so the scheduler
// can run Allocate every interval without re-allocating its job ordering,
// run table, gain heap, or result map. The zero value is ready to use. A
// state is not safe for concurrent use; each concurrent scheduling session
// (e.g. parallel simulator runs) needs its own.
//
// The map returned by Allocate is owned by the state and is overwritten by
// the next Allocate call; callers that retain allocations across intervals
// must copy it.
type AllocState struct {
	// Trace, when non-nil, receives one "alloc-kernel" span per Allocate
	// call. It defaults to nil; the nil path performs no extra allocation
	// (CI-guarded by alloc_guard_test.go) and near-zero extra work.
	Trace *obs.Tracer

	ordered []*JobInfo
	runs    []allocRun
	heap    gainHeap
	out     map[int]Allocation
}

// NewAllocState returns an empty allocator state.
func NewAllocState() *AllocState { return &AllocState{} }

// Allocate runs the §4.1 marginal-gain algorithm: every active job first
// receives one worker and one parameter server (starvation avoidance), then
// single tasks are granted greedily to the job whose completion time shrinks
// the most per unit of dominant resource, until the cluster capacity C_r is
// exhausted or all marginal gains turn non-positive.
//
// Jobs whose initial (1,1) pair does not fit the remaining capacity receive
// an empty allocation — the caller pauses them until the next interval.
func (st *AllocState) Allocate(jobs []*JobInfo, capacity cluster.Resources) map[int]Allocation {
	sp := st.Trace.Begin("alloc-kernel")
	defer st.Trace.End(sp)
	if st.out == nil {
		st.out = make(map[int]Allocation, len(jobs))
	} else {
		clear(st.out)
	}
	out := st.out
	if len(jobs) == 0 {
		return out
	}
	remaining := capacity

	// Phase 1: one worker + one PS per job, in deterministic job-ID order.
	st.ordered = append(st.ordered[:0], jobs...)
	ordered := st.ordered
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	runs := st.runs[:0]
	for _, j := range ordered {
		seed := j.WorkerRes.Add(j.PSRes)
		if !seed.Fits(remaining) {
			out[j.ID] = Allocation{}
			continue
		}
		remaining = remaining.Sub(seed)
		runs = append(runs, allocRun{job: j, alloc: Allocation{PS: 1, Workers: 1}})
	}
	st.runs = runs

	// Phase 2: greedy marginal-gain grants. One always-current heap entry per
	// job: a grant changes only that job's gain, so its entry is recomputed
	// and replaced at the top while every other entry stays valid.
	h := st.heap[:0]
	for ri := range runs {
		r := &runs[ri]
		r.remain = remainingTime(r.job, r.alloc.PS, r.alloc.Workers)
		kind, gain, after := bestGainFrom(r.job, r.alloc, r.remain, capacity)
		if gain > 0 {
			h = append(h, heapEntry{gain: gain, after: after, kind: kind, run: int32(ri)})
		}
	}
	st.heap = h
	h.init()

	for len(h) > 0 {
		e := h[0]
		r := &runs[e.run]
		var req cluster.Resources
		if e.kind == addWorker {
			req = r.job.WorkerRes
		} else {
			req = r.job.PSRes
		}
		if !req.Fits(remaining) {
			// This particular task no longer fits. The job may still have a
			// fitting alternative action; try the other kind once.
			if alt, gain, after := otherGainFrom(r.job, r.alloc, r.remain, capacity, e.kind); gain > 0 {
				var altReq cluster.Resources
				if alt == addWorker {
					altReq = r.job.WorkerRes
				} else {
					altReq = r.job.PSRes
				}
				if altReq.Fits(remaining) {
					h.replaceTop(heapEntry{gain: gain, after: after, kind: alt, run: e.run})
					continue
				}
			}
			h = h.popTop()
			continue
		}
		remaining = remaining.Sub(req)
		if e.kind == addWorker {
			r.alloc.Workers++
		} else {
			r.alloc.PS++
		}
		r.remain = e.after
		if kind, gain, after := bestGainFrom(r.job, r.alloc, r.remain, capacity); gain > 0 {
			h.replaceTop(heapEntry{gain: gain, after: after, kind: kind, run: e.run})
		} else {
			h = h.popTop()
		}
	}

	for ri := range runs {
		out[runs[ri].job.ID] = runs[ri].alloc
	}
	return out
}

// Allocate is the stateless convenience wrapper: each call runs on a fresh
// AllocState, so the returned map is caller-owned. Hot paths should hold an
// AllocState and call its method instead.
func Allocate(jobs []*JobInfo, capacity cluster.Resources) map[int]Allocation {
	var st AllocState
	return st.Allocate(jobs, capacity)
}

// EffectivePriority resolves the zero-means-1.0 convention of
// JobInfo.Priority: the factor that scales the job's marginal gain.
func EffectivePriority(j *JobInfo) float64 {
	if j.Priority == 0 {
		return 1
	}
	return j.Priority
}

// otherGainFrom computes the normalized gain of the action other than
// `tried`, from the job's current remaining time supplied by the caller; it
// also returns the remaining time the alternative action would leave the job
// with.
func otherGainFrom(j *JobInfo, a Allocation, base float64, capacity cluster.Resources, tried gainKind) (gainKind, float64, float64) {
	prio := j.Priority
	if prio == 0 {
		prio = 1
	}
	if tried == addWorker {
		if j.MaxPS != 0 && a.PS >= j.MaxPS {
			return addPS, math.Inf(-1), math.Inf(1)
		}
		tp := remainingTime(j, a.PS+1, a.Workers)
		return addPS, normalizedGain(base, tp, j.PSRes, capacity) * prio, tp
	}
	if j.MaxWorkers != 0 && a.Workers >= j.MaxWorkers {
		return addWorker, math.Inf(-1), math.Inf(1)
	}
	tw := remainingTime(j, a.PS, a.Workers+1)
	return addWorker, normalizedGain(base, tw, j.WorkerRes, capacity) * prio, tw
}
