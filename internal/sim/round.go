package sim

import (
	"fmt"
	"math"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
	"optimus/internal/obs"
)

// Round is the decision half of one scheduling round, the one copy every
// driver of the paper's control loop runs — sim.Run per replayed interval,
// the optimusd daemon (serve.Daemon.Step) per tick, and the §5 operator
// (operator.Cycle) per interval on live jobs: allocate by marginal gain
// (§4.1), place by Theorem 1 (§4.2), and shrink a job that does not pack
// until it does rather than leave it idle for a round (§4.2). A Round owns
// scratch reused from round to round and is not safe for concurrent use.
//
// The other half of the round — apply the placement, advance the physics,
// observe — is Job's Advance, Measure and Observe, plus Deploy and Undeploy
// in sim.Run (the daemon applies WAL records); the operator binds pods.
// What stays with those two, and why:
//   - The views. sim's schedulerView damps beginning-state priority on the
//     ground-truth progress fraction, EstimatedView (the daemon's) on the
//     estimated one; merging them would move the pinned sim schedules.
//   - Around the Job calls: sim's faults, checkpoints, restore delays,
//     chaos straggler shapes and share reservations; the daemon's shard
//     locks, lifecycle states, WAL records and SSE events. Each driver
//     keeps its own loop order, which fixes its RNG draw order.
type Round struct {
	policy  Policy
	cluster *cluster.Cluster
	trace   *obs.Tracer
	audit   *obs.AuditLog
	rec     *metrics.Recorder
	prepare func(*cluster.Cluster)

	infos   []*core.JobInfo
	byID    map[int]*core.JobInfo
	grant   map[int]core.Allocation // the policy's own map: read only
	keep    map[int]core.Allocation // the driver's overrides of grant
	reqs    []core.PlacementRequest
	retry   [1]core.PlacementRequest
	placed  map[int]core.Placement // the policy's own map: read only
	rescued map[int]core.Placement
}

// NewRound returns the round kernel for one driver run of policy p on
// cluster c. prepare resets c to its pre-placement state before a placement
// (nil means ResetAll); a policy's kernel pair (Policy.Incr) gets it as its
// placement session's Prepare. The tracer, which may be nil, is attached to
// the pair's kernels; the audit log, which may be nil, receives one
// obs.Decision per job per round from Place. rec receives the allocate and
// place latencies and the pair's round and migration counters.
func NewRound(p Policy, c *cluster.Cluster, prepare func(*cluster.Cluster),
	tr *obs.Tracer, au *obs.AuditLog, rec *metrics.Recorder) *Round {
	if prepare == nil {
		prepare = (*cluster.Cluster).ResetAll
	}
	if inc := p.Incr; inc != nil {
		inc.Place.Prepare = prepare
		inc.Alloc.St.Trace, inc.Place.St.Trace = tr, tr
	}
	return &Round{
		policy: p, cluster: c, trace: tr, audit: au, rec: rec, prepare: prepare,
		byID:    make(map[int]*core.JobInfo),
		keep:    make(map[int]core.Allocation),
		rescued: make(map[int]core.Placement),
	}
}

// Allocate starts a round: it runs the policy's allocation of infos against
// capacity in an "allocate" span. The returned map is the policy's own — a
// kernel's scratch, overwritten next round — and must not be written.
func (r *Round) Allocate(infos []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
	span := r.trace.Begin("allocate")
	start := time.Now()
	r.grant = r.policy.Allocate(infos, capacity)
	r.rec.ObserveAllocateDuration(time.Since(start).Seconds())
	r.trace.End(span)
	r.infos = infos
	clear(r.byID)
	for _, in := range infos {
		r.byID[in.ID] = in
	}
	clear(r.keep)
	return r.grant
}

// Info returns job id's view in this round.
func (r *Round) Info(id int) *core.JobInfo { return r.byID[id] }

// Keep makes this round place job id at a instead of its grant (the §7
// churn damper's override); a shrink retry of the job starts from a.
func (r *Round) Keep(id int, a core.Allocation) { r.keep[id] = a }

func (r *Round) alloc(id int) core.Allocation {
	if a, ok := r.keep[id]; ok {
		return a
	}
	return r.grant[id]
}

// Place places every job at its allocation in a "place" span. A stateless
// policy gets the cluster prepared first; a kernel pair's placement session
// prepares it itself. A job can fit aggregate capacity yet not pack onto
// nodes (fragmentation); rather than leave it idle until the next interval
// (§4.2), every job that does not pack is shrunk by one task at a time — a
// worker while workers are at least as many as parameter servers, else a
// parameter server — and retried against the partially committed cluster
// until it packs or is down to one of each. A kernel pair retries through
// its §4.2 kernel, which does not reset the cluster, and skips the steps
// beyond the job's core.Headroom, which cannot pack. A traced span notes
// "shrink=steps". Last, an attached audit log receives each job's decision.
func (r *Round) Place() {
	span := r.trace.Begin("place")
	start := time.Now()
	r.reqs = r.reqs[:0]
	for _, in := range r.infos {
		if a := r.alloc(in.ID); a.PS > 0 && a.Workers > 0 {
			r.reqs = append(r.reqs, request(in, a))
		}
	}
	inc, place := r.policy.Incr, r.policy.Place
	if inc == nil {
		r.prepare(r.cluster)
	}
	var unplaced []int
	r.placed, unplaced = place(r.reqs, r.cluster)
	if inc != nil {
		place = inc.Place.St.Place
	}
	clear(r.rescued)
	steps := 0
	for _, id := range unplaced {
		a, info := r.alloc(id), r.byID[id]
		if info == nil || a.PS < 1 || a.Workers < 1 || a.PS+a.Workers <= 2 {
			continue
		}
		// The all-or-nothing §4.2 kernel changes the cluster only when a step
		// packs: steps beyond the headroom cannot. The baseline placers place
		// partially, so a stateless policy tries every step.
		var room core.Headroom
		if inc != nil {
			room = core.NewHeadroom(info.WorkerRes, info.PSRes, r.cluster)
		}
		for a.PS+a.Workers > 2 {
			steps++
			if a.Workers >= a.PS {
				a.Workers--
			} else {
				a.PS--
			}
			if inc != nil && !room.Admits(a) {
				continue
			}
			r.retry[0] = request(info, a)
			if pls, unp := place(r.retry[:], r.cluster); len(unp) == 0 {
				r.rescued[id] = pls[id]
				break
			}
		}
	}
	if inc != nil {
		r.rec.SetIncrStats(inc.Stats())
	}
	r.rec.ObservePlaceDuration(time.Since(start).Seconds())
	if r.trace.Enabled() {
		r.trace.Annotate(span, fmt.Sprintf("shrink=%d", steps))
	}
	r.trace.End(span)
	if r.audit != nil {
		r.record()
	}
}

// record writes one decision per job of the round to the audit log: the
// job's §4.1 inputs, its grant (or Keep override), and its placement after
// any shrink retry. The decision shares the placement's node IDs, which no
// placer or Job.Deploy writes after the round places them.
func (r *Round) record() {
	for _, in := range r.infos {
		a := r.alloc(in.ID)
		d := obs.Decision{
			Job: in.ID, Priority: core.EffectivePriority(in), Remaining: in.RemainingWork,
			GrantPS: a.PS, GrantWorkers: a.Workers,
		}
		if pl, ok := r.Placement(in.ID); ok {
			d.PS, d.Workers = pl.Counts()
			d.Servers, d.Spread, d.Even, d.Nodes = pl.Servers(), pl.Spread(), pl.Even, pl.NodeIDs
			if f := in.Speed(d.PS, d.Workers); f > 0 && !math.IsInf(f, 1) {
				d.Speed = f // JSON carries no NaN or Inf; no progress records 0
			}
		}
		r.audit.Record(d)
	}
}

// Placement returns job id's placement this round, if it has one.
func (r *Round) Placement(id int) (core.Placement, bool) {
	if pl, ok := r.rescued[id]; ok {
		return pl, true
	}
	pl, ok := r.placed[id]
	return pl, ok
}

func request(in *core.JobInfo, a core.Allocation) core.PlacementRequest {
	return core.PlacementRequest{JobID: in.ID, Alloc: a, WorkerRes: in.WorkerRes, PSRes: in.PSRes}
}
