package sim

import (
	"reflect"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
	"optimus/internal/obs"
)

// TestRoundContract pins what both drivers rely on from the round kernel:
// one Allocate per round, the maps the policy returned left untouched (the
// §4.1 kernel returns its own scratch map), and the retries of a
// kept (churn-damped) job shrinking from the kept allocation, not the grant.
func TestRoundContract(t *testing.T) {
	grant := map[int]core.Allocation{1: {PS: 4, Workers: 4}, 2: {PS: 2, Workers: 3}}
	placed := map[int]core.Placement{2: {NodeIDs: []string{"n0"}, PSOnNode: []int{2}, WorkersOnNode: []int{3}}}
	wantGrant := map[int]core.Allocation{1: {PS: 4, Workers: 4}, 2: {PS: 2, Workers: 3}}
	wantPlaced := map[int]core.Placement{2: {NodeIDs: []string{"n0"}, PSOnNode: []int{2}, WorkersOnNode: []int{3}}}

	allocs := 0
	var calls [][]core.PlacementRequest
	p := Policy{
		Name: "stub",
		Allocate: func([]*core.JobInfo, cluster.Resources) map[int]core.Allocation {
			allocs++
			return grant
		},
		// A round's first call places job 2 and not job 1; a retry packs once
		// the job is down to three tasks.
		Place: func(reqs []core.PlacementRequest, _ *cluster.Cluster) (map[int]core.Placement, []int) {
			calls = append(calls, append([]core.PlacementRequest(nil), reqs...))
			if len(calls) == 1 {
				return placed, []int{1}
			}
			a := reqs[0].Alloc
			if a.Tasks() > 3 {
				return map[int]core.Placement{}, []int{reqs[0].JobID}
			}
			return map[int]core.Placement{reqs[0].JobID: {
				NodeIDs: []string{"n1"}, PSOnNode: []int{a.PS}, WorkersOnNode: []int{a.Workers},
			}}, nil
		},
	}
	prepared := 0
	r := NewRound(p, cluster.Uniform(2, cluster.Resources{cluster.CPU: 8}),
		func(*cluster.Cluster) { prepared++ }, nil, nil, metrics.NewRecorder())
	infos := []*core.JobInfo{{ID: 1}, {ID: 2}}

	for round, tc := range []struct {
		keep       *core.Allocation
		firstReq   core.Allocation // job 1 in the round's first Place call
		firstRetry core.Allocation
	}{
		{keep: &core.Allocation{PS: 2, Workers: 3}, firstReq: core.Allocation{PS: 2, Workers: 3}, firstRetry: core.Allocation{PS: 2, Workers: 2}},
		{firstReq: core.Allocation{PS: 4, Workers: 4}, firstRetry: core.Allocation{PS: 4, Workers: 3}},
	} {
		calls = calls[:0]
		if got := r.Allocate(infos, cluster.Resources{cluster.CPU: 16}); !reflect.DeepEqual(got, wantGrant) {
			t.Fatalf("round %d: Allocate returned %v, want the policy's %v", round, got, wantGrant)
		}
		if tc.keep != nil {
			r.Keep(1, *tc.keep)
		}
		r.Place()

		if allocs != round+1 || prepared != round+1 {
			t.Errorf("round %d: %d Allocate and %d prepare calls, want one each per round", round, allocs, prepared)
		}
		if len(calls) < 2 || calls[0][0].Alloc != tc.firstReq || calls[1][0].Alloc != tc.firstRetry {
			t.Fatalf("round %d: placement calls %v, want job 1 at %v then a retry at %v", round, calls, tc.firstReq, tc.firstRetry)
		}
		if !reflect.DeepEqual(grant, wantGrant) || !reflect.DeepEqual(placed, wantPlaced) {
			t.Errorf("round %d: the policy's maps were written: grant %v, placements %v", round, grant, placed)
		}
		pl, ok := r.Placement(1)
		if ps, w := pl.Counts(); !ok || ps+w != 3 {
			t.Errorf("round %d: job 1 placed %v at %d+%d tasks, want the three-task retry", round, ok, ps, w)
		}
		if pl, ok := r.Placement(2); !ok || !reflect.DeepEqual(pl, wantPlaced[2]) {
			t.Errorf("round %d: job 2 placed %v at %v, want the policy's placement", round, ok, pl)
		}
		if _, ok := r.Placement(3); ok {
			t.Errorf("round %d: a job outside the round has a placement", round)
		}
	}
}

// TestRunAllocatesOncePerInterval: sim.Run calls Policy.Allocate exactly once
// per scheduling interval, through a session policy and a stateless one —
// bench's replay workload cuts a run into intervals by counting those calls.
func TestRunAllocatesOncePerInterval(t *testing.T) {
	for _, base := range []Policy{OptimusPolicy(), DRFPolicy()} {
		calls := 0
		count := func(p Policy) Policy {
			inner := p.Allocate
			p.Allocate = func(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
				calls++
				return inner(jobs, capacity)
			}
			return p
		}
		p := count(base)
		if base.Session != nil {
			p.Session = func() Policy { return count(base.Session()) }
		}
		res, err := Run(testbedConfig(p, smallMix(6, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if calls != res.Intervals {
			t.Errorf("%s: %d Allocate calls over %d intervals", base.Name, calls, res.Intervals)
		}
	}
}

// TestRoundRecordsDecisions pins the audit a Round writes: per round, one
// decision per job carrying the job's grant (or Keep override), its
// effective priority and §4.1 inputs, and its placement — on a
// Theorem-1-packable instance, an exact even split with spread 0.
func TestRoundRecordsDecisions(t *testing.T) {
	flat := func(p, w int) float64 { // no marginal gain past the seed
		if p < 1 || w < 1 {
			return 0
		}
		return 1
	}
	task := cluster.Resources{cluster.CPU: 1}
	infos := []*core.JobInfo{
		{ID: 1, RemainingWork: 50, Speed: flat, WorkerRes: task, PSRes: task},
		{ID: 2, RemainingWork: 70, Speed: flat, WorkerRes: task, PSRes: task, Priority: 0.95},
	}
	au := obs.NewAuditLog(64)
	c := cluster.Uniform(4, cluster.Resources{cluster.CPU: 3})
	r := NewRound(OptimusPolicy(), c, nil, nil, au, metrics.NewRecorder())
	for round := 1; round <= 2; round++ {
		au.Stamp(round, float64(600*round))
		r.Allocate(infos, c.Capacity())
		// Job 2 keeps its 1/1 grant and lands on one server; job 1 is kept
		// at 2/4, which splits evenly as 1 PS + 2 workers on two servers.
		r.Keep(1, core.Allocation{PS: 2, Workers: 4})
		r.Place()
		for _, in := range infos {
			ds := au.Decisions(in.ID)
			if len(ds) != round {
				t.Fatalf("round %d job %d: %d decisions, want one per round", round, in.ID, len(ds))
			}
			d := ds[round-1]
			if d.Round != round || d.Time != float64(600*round) {
				t.Errorf("round %d job %d: stamped round %d time %g", round, in.ID, d.Round, d.Time)
			}
			if a := r.alloc(in.ID); d.GrantPS != a.PS || d.GrantWorkers != a.Workers {
				t.Errorf("round %d job %d: grant %d/%d, round allocated %v", round, in.ID, d.GrantPS, d.GrantWorkers, a)
			}
			if d.Priority != core.EffectivePriority(in) || d.Remaining != in.RemainingWork {
				t.Errorf("round %d job %d: priority %g remaining %g, view has %g and %g",
					round, in.ID, d.Priority, d.Remaining, core.EffectivePriority(in), in.RemainingWork)
			}
			pl, ok := r.Placement(in.ID)
			if !ok {
				t.Fatalf("round %d job %d: unplaced", round, in.ID)
			}
			if ps, w := pl.Counts(); d.PS != ps || d.Workers != w || d.Speed != in.Speed(ps, w) {
				t.Errorf("round %d job %d: placed %d/%d at speed %g, round placed %d/%d", round, in.ID, d.PS, d.Workers, d.Speed, ps, w)
			}
			if d.Servers != len(d.Nodes) || d.Servers != pl.Servers() {
				t.Errorf("round %d job %d: %d servers, nodes %v, placement %v", round, in.ID, d.Servers, d.Nodes, pl.NodeIDs)
			}
		}
		if d := au.Decisions(1)[round-1]; d.GrantPS != 2 || d.GrantWorkers != 4 || d.Priority != 1 ||
			d.Servers != 2 || !d.Even || d.Spread != 0 {
			t.Errorf("round %d: kept job 1 decided %+v, want 2/4 at priority 1 split evenly over 2 servers", round, d)
		}
		if d := au.Decisions(2)[round-1]; d.GrantPS != 1 || d.GrantWorkers != 1 || d.Priority != 0.95 {
			t.Errorf("round %d: job 2 decided %+v, want its 1/1 grant at priority 0.95", round, d)
		}
	}
	if n := len(au.Decisions(-1)); n != 4 {
		t.Errorf("%d decisions over 2 rounds of 2 jobs, want 4", n)
	}
}
