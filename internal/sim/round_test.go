package sim

import (
	"reflect"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
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
