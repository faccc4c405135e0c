package sim

import (
	"optimus/internal/baselines"
	"optimus/internal/cluster"
	"optimus/internal/core"
)

// OptimusPolicy is the full §4 scheduler: marginal-gain allocation plus
// Theorem-1 placement, run through a core.Incremental kernel pair, which
// also counts the §5.4 task migrations. Each simulation run gets its own
// pair (via the Session hook), so the parallel runs of an experiment sweep
// share no kernel scratch.
func OptimusPolicy() Policy {
	session := func() Policy {
		inc := core.NewIncremental()
		return Policy{
			Name:     "optimus",
			Allocate: inc.Alloc.Allocate,
			Place:    inc.Place.Place,
			Incr:     inc,
		}
	}
	p := session()
	p.Session = session
	return p
}

// DRFPolicy is the fairness baseline: DRF progressive filling with
// load-balancing (Kubernetes-default) placement.
func DRFPolicy() Policy {
	return Policy{
		Name: "drf",
		Allocate: func(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
			return baselines.DRFAllocate(jobs, capacity, 0)
		},
		Place: baselines.SpreadPlace,
	}
}

// TetrisPolicy is the packing baseline: shortest-remaining-first allocation
// with fragmentation-minimizing placement.
func TetrisPolicy() Policy {
	return Policy{
		Name: "tetris",
		Allocate: func(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
			return baselines.TetrisAllocate(jobs, capacity, 4)
		},
		Place: baselines.PackPlace,
	}
}

// Hybrid builds an ablation policy combining any allocator with any placer
// (Fig 18 uses baseline allocators with Optimus placement; Fig 19 the
// reverse).
func Hybrid(name string,
	alloc func([]*core.JobInfo, cluster.Resources) map[int]core.Allocation,
	place func([]core.PlacementRequest, *cluster.Cluster) (map[int]core.Placement, []int),
) Policy {
	return Policy{Name: name, Allocate: alloc, Place: place}
}

// DRFAllocatorOnly exposes the baseline allocator for ablations.
func DRFAllocatorOnly(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
	return baselines.DRFAllocate(jobs, capacity, 0)
}

// TetrisAllocatorOnly exposes the baseline allocator for ablations.
func TetrisAllocatorOnly(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
	return baselines.TetrisAllocate(jobs, capacity, 4)
}
