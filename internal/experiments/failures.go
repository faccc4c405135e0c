package experiments

import (
	"fmt"

	"optimus/internal/chaos"
	"optimus/internal/cluster"
	"optimus/internal/sim"
	"optimus/internal/workload"
)

func init() {
	register("failures", failureSweep)
}

// failureSweep is the resilience exhibit: one seeded chaos schedule — node
// crashes from a Poisson MTBF process, task kills, stragglers, a fabric
// slowdown and checkpoint-write failures — replayed identically against
// Optimus, DRF and Tetris, next to each policy's fault-free run. Because the
// injector and the simulator are both deterministic, every policy faces the
// exact same fault sequence, isolating how scheduling policy shapes recovery
// cost.
func failureSweep(opt Options) (Table, error) {
	t := Table{
		ID:    "failures",
		Title: "JCT under injected failures: identical fault schedule per policy",
		Columns: []string{"scheduler", "clean-JCT(s)", "faulty-JCT(s)", "slowdown",
			"faults", "restarts", "wasted(s)", "recovery(s)"},
		Notes: "crashes roll jobs back to their last checkpoint; Optimus also replaces injected stragglers (§5.2, §5.4)",
	}
	jobs := workload.Generate(workload.GenConfig{
		N: 15, Horizon: 4000, Seed: opt.Seed + 400, Downscale: 0.03,
	})

	sched := opt.Faults
	if sched == nil {
		var nodes []string
		for _, nd := range cluster.Testbed().Nodes() {
			nodes = append(nodes, nd.ID)
		}
		jobIDs := make([]int, len(jobs))
		for i, j := range jobs {
			jobIDs[i] = j.ID
		}
		// Keep the fault horizon inside the run's expected makespan so most
		// of the schedule actually fires before the last job completes.
		s := chaos.Generate(chaos.GenConfig{
			Seed: opt.Seed + 41, Horizon: 9000,
			Nodes: nodes, NodeMTBF: 30000, MeanOutage: 1200,
			Jobs: jobIDs, TaskKillRate: 1.0,
			StragglerRate: 0.8, StragglerSlowdown: 0.5, StragglerDur: 1800,
			CkptFailProb: 0.2, NetSlowCount: 1, NetSlowDur: 1200, NetSlowSeverity: 0.7,
		})
		sched = &s
	}

	// The schedule is shared read-only: each run builds its own injector
	// cursor from a copy, so the same fault sequence replays against every
	// policy concurrently.
	policies := []sim.Policy{sim.OptimusPolicy(), sim.DRFPolicy(), sim.TetrisPolicy()}
	cfgs := make([]sim.Config, 0, 2*len(policies))
	for _, policy := range policies {
		cfgs = append(cfgs, simConfig(policy, jobs, opt.Seed))
		cfg := simConfig(policy, jobs, opt.Seed)
		cfg.Faults = sched
		cfgs = append(cfgs, cfg)
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	for i, policy := range policies {
		clean, faulty := results[2*i], results[2*i+1]
		slowdown := 0.0
		if clean.Summary.AvgJCT > 0 {
			slowdown = faulty.Summary.AvgJCT / clean.Summary.AvgJCT
		}
		t.Rows = append(t.Rows, []string{
			policy.Name,
			fmt.Sprintf("%.0f", clean.Summary.AvgJCT),
			fmt.Sprintf("%.0f", faulty.Summary.AvgJCT),
			f2(slowdown),
			fmt.Sprintf("%d", faulty.Summary.FaultsInjected),
			fmt.Sprintf("%d", faulty.Summary.TasksRestarted),
			fmt.Sprintf("%.0f", faulty.Summary.WastedWork),
			fmt.Sprintf("%.0f", faulty.Summary.RecoveryTime),
		})
	}
	return t, nil
}
