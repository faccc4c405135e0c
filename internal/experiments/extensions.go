package experiments

import (
	"fmt"

	"optimus/internal/sim"
	"optimus/internal/workload"
)

func init() {
	register("ablation-priority", ablationPriority)
	register("stragglers", stragglerStudy)
	register("mixed", mixedWorkloads)
}

// ablationPriority reproduces §6.3's priority-factor study: damping the
// marginal gain of beginning-state jobs by 0.95 should reduce average JCT
// and makespan slightly (the paper measures 2.66% and 1.88%).
func ablationPriority(opt Options) (Table, error) {
	t := Table{
		ID:      "ablation-priority",
		Title:   "Priority factor for beginning-state jobs (§4.1/§6.3)",
		Columns: []string{"priority-factor", "avg-JCT(s)", "makespan(s)", "norm-JCT"},
		Notes:   "paper: factor 0.95 improves JCT 2.66% and makespan 1.88%",
	}
	factors := []float64{1.0, 0.95}
	cases := make([]testbedCase, len(factors))
	for i, factor := range factors {
		factor := factor
		cases[i] = testbedCase{
			policy: sim.OptimusPolicy(),
			mutate: func(c *sim.Config) { c.PriorityFactor = factor },
		}
	}
	stats, err := testbedSweep(opt, cases, 3)
	if err != nil {
		return Table{}, err
	}
	var baseJCT float64
	for i, factor := range factors {
		jct, span := stats[i].jct, stats[i].span
		if factor == 1.0 {
			baseJCT = jct
		}
		t.Rows = append(t.Rows, []string{
			f2(factor), fmt.Sprintf("%.0f", jct), fmt.Sprintf("%.0f", span),
			f2(jct / baseJCT),
		})
	}
	return t, nil
}

// stragglerStudy measures §5.2's straggler handling: with slow workers
// appearing at random, Optimus (which detects and replaces them each
// interval) should degrade less than the baselines (which do not).
func stragglerStudy(opt Options) (Table, error) {
	t := Table{
		ID:      "stragglers",
		Title:   "Straggler injection: slowdown vs straggler-free run (§5.2)",
		Columns: []string{"scheduler", "clean-JCT(s)", "straggler-JCT(s)", "slowdown"},
		Notes:   "Optimus replaces stragglers after one detection interval; baselines keep them",
	}
	// One fan-out for all six columns: each policy's clean and straggling
	// averages are independent runs.
	policies := []sim.Policy{sim.OptimusPolicy(), sim.DRFPolicy(), sim.TetrisPolicy()}
	var cases []testbedCase
	for _, policy := range policies {
		cases = append(cases,
			testbedCase{policy: policy},
			testbedCase{policy: policy, mutate: func(c *sim.Config) {
				c.StragglerProb = 0.4
			}})
	}
	stats, err := testbedSweep(opt, cases, 3)
	if err != nil {
		return Table{}, err
	}
	for i, policy := range policies {
		clean, strag := stats[2*i].jct, stats[2*i+1].jct
		t.Rows = append(t.Rows, []string{
			policy.Name, fmt.Sprintf("%.0f", clean), fmt.Sprintf("%.0f", strag),
			f2(strag / clean),
		})
	}
	return t, nil
}

// mixedWorkloads exercises the §7 extension where Optimus receives only a
// time-varying share of the cluster from a central resource manager (e.g.
// half the nodes during the day, all of them at night).
func mixedWorkloads(opt Options) (Table, error) {
	t := Table{
		ID:      "mixed",
		Title:   "Mixed workloads: time-varying cluster share (§7)",
		Columns: []string{"share-schedule", "scheduler", "avg-JCT(s)", "makespan(s)"},
		Notes:   "Optimus adapts each interval to the share it is granted",
	}
	schedules := []struct {
		name string
		fn   func(t float64) float64
	}{
		{"full-cluster", nil},
		{"half-cluster", func(float64) float64 { return 0.5 }},
		{"day-night", func(tm float64) float64 {
			// 0.5 for the first 2 hours ("day"), full afterwards ("night").
			if tm < 7200 {
				return 0.5
			}
			return 1.0
		}},
	}
	jobs := workload.Generate(workload.GenConfig{
		N: 15, Horizon: 4000, Seed: opt.Seed + 300, Downscale: 0.03,
	})
	policies := []sim.Policy{sim.OptimusPolicy(), sim.DRFPolicy()}
	var cfgs []sim.Config
	for _, sched := range schedules {
		for _, policy := range policies {
			cfg := simConfig(policy, jobs, opt.Seed)
			cfg.ShareSchedule = sched.fn
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	for si, sched := range schedules {
		for pi, policy := range policies {
			s := results[si*len(policies)+pi].Summary
			t.Rows = append(t.Rows, []string{
				sched.name, policy.Name,
				fmt.Sprintf("%.0f", s.AvgJCT),
				fmt.Sprintf("%.0f", s.Makespan),
			})
		}
	}
	return t, nil
}
