package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

func init() {
	register("fig11", fig11Comparison)
	register("fig12", fig12Scalability)
	register("fig13", fig13Stats)
	register("fig14", fig14Timelines)
	register("fig15", fig15ErrorSensitivity)
	register("fig16", fig16TrainingModes)
	register("fig17", fig17ArrivalProcesses)
	register("fig18", fig18AllocAblation)
	register("fig19", fig19PlacementAblation)
	register("overhead", overheadScaling)
}

// mixFor builds the §6.1 workload: random Table-1 jobs with random training
// modes and thresholds in [1%,5%], arriving over the window, datasets
// downscaled so a run lasts hours rather than weeks.
func mixFor(opt Options, n int, arrivals workload.ArrivalProcess) []workload.JobSpec {
	return workload.Generate(workload.GenConfig{
		N: n, Horizon: 8000, Seed: opt.Seed + 100, Downscale: 0.03,
		Arrivals: arrivals,
	})
}

// simConfig is the shared full-system configuration: estimation on (pre-run
// profiling, online refits), checkpoint scaling overhead, priority factor.
func simConfig(policy sim.Policy, jobs []workload.JobSpec, seed int64) sim.Config {
	return sim.Config{
		Cluster:           cluster.Testbed(),
		Jobs:              jobs,
		Policy:            policy,
		Interval:          600,
		Seed:              seed,
		PreRunSamples:     5,
		SpeedNoise:        0.03,
		LossNoise:         0.01,
		PriorityFactor:    0.95,
		ScalingBase:       12,
		ScalingPerTask:    0.3,
		ReconfigThreshold: 0.15,
	}
}

// comparisonPolicies is the Fig-11/13/14/16/17 scheduler lineup.
func comparisonPolicies() []sim.Policy {
	return []sim.Policy{sim.OptimusPolicy(), sim.DRFPolicy(), sim.TetrisPolicy()}
}

// policyCases wraps the comparison lineup as testbed sweep cases.
func policyCases(policies []sim.Policy, mutate func(*sim.Config)) []testbedCase {
	cases := make([]testbedCase, len(policies))
	for i, p := range policies {
		cases[i] = testbedCase{policy: p, mutate: mutate}
	}
	return cases
}

// fig11Comparison regenerates Fig. 11: normalized JCT and makespan of
// Optimus vs the DRF fairness scheduler and Tetris, on the paper's 9-job
// testbed workload (averaged over 3 repetitions as in §6.1).
func fig11Comparison(opt Options) (Table, error) {
	t := Table{
		ID:      "fig11",
		Title:   "Normalized JCT and makespan vs baselines (testbed workload)",
		Columns: []string{"scheduler", "norm-JCT", "norm-makespan", "avg-JCT(s)", "makespan(s)"},
		Notes:   "paper: DRF 2.39x JCT / 1.63x makespan vs Optimus; Tetris in between",
	}
	policies := comparisonPolicies()
	stats, err := testbedSweep(opt, policyCases(policies, nil), 3)
	if err != nil {
		return Table{}, err
	}
	var baseJCT, baseSpan float64
	for i, policy := range policies {
		jct, span := stats[i].jct, stats[i].span
		if policy.Name == "optimus" {
			baseJCT, baseSpan = jct, span
		}
		t.Rows = append(t.Rows, []string{
			policy.Name, f2(jct / baseJCT), f2(span / baseSpan),
			fmt.Sprintf("%.0f", jct), fmt.Sprintf("%.0f", span),
		})
	}
	return t, nil
}

// fig12Scalability regenerates Fig. 12: wall-clock scheduling time of one
// full Optimus cycle (allocation + placement) for large synthetic clusters.
func fig12Scalability(opt Options) (Table, error) {
	t := Table{
		ID:      "fig12",
		Title:   "Scheduling time vs cluster size",
		Columns: []string{"jobs", "nodes", "tasks-allocated", "time"},
		Notes:   "paper: 4,000 jobs / ~100,000 tasks on 16,000 nodes within 5 s (1 core)",
	}
	jobCounts := []int{1000, 4000}
	nodeCounts := []int{1000, 4000, 16000}
	// This exhibit measures the scheduler's own wall-clock, so its sweep
	// points run serially on purpose: timing them concurrently would measure
	// pool contention, not scheduling time.
	zoo := workload.Zoo()
	for _, nJobs := range jobCounts {
		for _, nNodes := range nodeCounts {
			c := cluster.Uniform(nNodes, cluster.Resources{
				cluster.CPU: 32, cluster.Memory: 128,
			})
			rng := rand.New(rand.NewSource(opt.Seed + int64(nJobs+nNodes)))
			jobs := make([]*core.JobInfo, nJobs)
			for i := range jobs {
				m := zoo[i%len(zoo)]
				mode := speedfit.Mode(rng.Intn(2))
				jobs[i] = &core.JobInfo{
					ID:            i,
					RemainingWork: 1000 + rng.Float64()*100000,
					Speed: func(p, w int) float64 {
						return m.TrueSpeed(mode, p, w)
					},
					WorkerRes:  m.WorkerRes,
					PSRes:      m.PSRes,
					MaxWorkers: 16,
					MaxPS:      16,
				}
			}
			start := time.Now()
			alloc := core.Allocate(jobs, c.Capacity())
			var reqs []core.PlacementRequest
			tasks := 0
			for _, j := range jobs {
				a := alloc[j.ID]
				tasks += a.Tasks()
				if a.PS > 0 && a.Workers > 0 {
					reqs = append(reqs, core.PlacementRequest{
						JobID: j.ID, Alloc: a,
						WorkerRes: j.WorkerRes, PSRes: j.PSRes,
					})
				}
			}
			core.Place(reqs, c)
			elapsed := time.Since(start)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(nJobs), fmt.Sprint(nNodes), fmt.Sprint(tasks),
				elapsed.Round(time.Millisecond).String(),
			})
		}
	}
	return t, nil
}

// fig13Stats regenerates Fig. 13: mean and standard deviation of JCT and
// makespan over repeated runs (the paper uses 3 repetitions).
func fig13Stats(opt Options) (Table, error) {
	t := Table{
		ID:      "fig13",
		Title:   "JCT and makespan, mean ± stddev over repetitions",
		Columns: []string{"scheduler", "avg-JCT(s)", "sd-JCT", "makespan(s)", "sd-makespan"},
	}
	policies := comparisonPolicies()
	stats, err := testbedSweep(opt, policyCases(policies, nil), 3)
	if err != nil {
		return Table{}, err
	}
	for i, policy := range policies {
		jcts, spans := stats[i].jcts, stats[i].spans
		t.Rows = append(t.Rows, []string{
			policy.Name,
			fmt.Sprintf("%.0f", metrics.Mean(jcts)), fmt.Sprintf("%.0f", metrics.Stddev(jcts)),
			fmt.Sprintf("%.0f", metrics.Mean(spans)), fmt.Sprintf("%.0f", metrics.Stddev(spans)),
		})
	}
	return t, nil
}

// fig14Timelines regenerates Fig. 14: running-task counts and normalized
// CPU utilizations over the course of one run, per scheduler.
func fig14Timelines(opt Options) (Table, error) {
	jobs := workload.Generate(workload.GenConfig{
		N: 15, Horizon: 4000, Seed: opt.Seed + 100, Downscale: 0.03,
	})
	t := Table{
		ID:      "fig14",
		Title:   "Running tasks and normalized CPU utilization over time",
		Columns: []string{"scheduler", "time(s)", "tasks", "worker-util", "ps-util"},
	}
	policies := comparisonPolicies()
	cfgs := make([]sim.Config, len(policies))
	for i, policy := range policies {
		cfgs[i] = simConfig(policy, jobs, opt.Seed)
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	for i, policy := range policies {
		res := results[i]
		stride := len(res.Timeline)/8 + 1
		for i := 0; i < len(res.Timeline); i += stride {
			s := res.Timeline[i]
			t.Rows = append(t.Rows, []string{
				policy.Name, fmt.Sprintf("%.0f", s.Time), fmt.Sprint(s.RunningTasks),
				f2(s.WorkerUtil), f2(s.PSUtil),
			})
		}
	}
	return t, nil
}

// fig15ErrorSensitivity regenerates Fig. 15: JCT/makespan degradation under
// injected convergence- and speed-prediction errors.
func fig15ErrorSensitivity(opt Options) (Table, error) {
	jobs := mixFor(opt, 12, nil)
	levels := []float64{0, 0.15, 0.30, 0.45}
	const reps = 3
	t := Table{
		ID:      "fig15",
		Title:   "Sensitivity to prediction errors (Optimus)",
		Columns: []string{"error-kind", "error%", "norm-JCT", "norm-makespan"},
		Notes:   "speed error hurts more than convergence error (paper §6.3)",
	}
	// One combo per distinct (conv, speed) error pair; the error-free pair is
	// shared by both kinds' zero levels and by the normalization base, so it
	// runs once instead of three times.
	type combo struct{ conv, speed float64 }
	combos := []combo{{0, 0}}
	for _, e := range levels {
		if e > 0 {
			combos = append(combos, combo{conv: e})
		}
	}
	for _, e := range levels {
		if e > 0 {
			combos = append(combos, combo{speed: e})
		}
	}
	cfgs := make([]sim.Config, 0, len(combos)*reps)
	for _, c := range combos {
		for r := 0; r < reps; r++ {
			cfg := simConfig(sim.OptimusPolicy(), jobs, opt.Seed+int64(r*13))
			cfg.UseTrueModels = true
			cfg.InjectConvError = c.conv
			cfg.InjectSpeedError = c.speed
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	avg := make(map[combo][2]float64, len(combos))
	for ci, c := range combos {
		var jct, span float64
		for r := 0; r < reps; r++ {
			s := results[ci*reps+r].Summary
			jct += s.AvgJCT
			span += s.Makespan
		}
		avg[c] = [2]float64{jct / float64(reps), span / float64(reps)}
	}
	base := avg[combo{}]
	baseJCT, baseSpan := base[0], base[1]
	for _, kind := range []string{"convergence", "speed"} {
		for _, e := range levels {
			c := combo{}
			if kind == "convergence" {
				c.conv = e
			} else {
				c.speed = e
			}
			a := avg[c]
			t.Rows = append(t.Rows, []string{
				kind, fmt.Sprintf("%.0f", e*100),
				f2(a[0] / baseJCT), f2(a[1] / baseSpan),
			})
		}
	}
	return t, nil
}

// fig16TrainingModes regenerates Fig. 16: all-async vs all-sync workloads.
func fig16TrainingModes(opt Options) (Table, error) {
	t := Table{
		ID:      "fig16",
		Title:   "Sensitivity to training modes",
		Columns: []string{"mode", "scheduler", "norm-JCT", "norm-makespan"},
	}
	modes := []speedfit.Mode{speedfit.Async, speedfit.Sync}
	policies := comparisonPolicies()
	var cfgs []sim.Config
	for _, mode := range modes {
		m := mode
		jobs := workload.Generate(workload.GenConfig{
			N: 36, Horizon: 8000, Seed: opt.Seed + 200, Downscale: 0.03, ForceMode: &m,
		})
		for _, policy := range policies {
			cfgs = append(cfgs, simConfig(policy, jobs, opt.Seed))
		}
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	for mi, mode := range modes {
		var base metrics.Summary
		for pi, policy := range policies {
			s := results[mi*len(policies)+pi].Summary
			if policy.Name == "optimus" {
				base = s
			}
			t.Rows = append(t.Rows, []string{
				mode.String(), policy.Name,
				f2(s.AvgJCT / base.AvgJCT),
				f2(s.Makespan / base.Makespan),
			})
		}
	}
	return t, nil
}

// fig17ArrivalProcesses regenerates Fig. 17: Poisson and Google-trace-like
// arrival processes.
func fig17ArrivalProcesses(opt Options) (Table, error) {
	t := Table{
		ID:      "fig17",
		Title:   "Sensitivity to job arrival processes",
		Columns: []string{"arrivals", "scheduler", "norm-JCT", "norm-makespan"},
		Notes:   "gain grows under bursty (trace-like) arrivals, as in the paper",
	}
	procs := []struct {
		name string
		fn   workload.ArrivalProcess
	}{
		{"poisson", workload.PoissonArrivals},
		{"google-trace", workload.GoogleTraceArrivals},
	}
	policies := comparisonPolicies()
	var cfgs []sim.Config
	for _, proc := range procs {
		jobs := mixFor(opt, 36, proc.fn)
		for _, policy := range policies {
			cfgs = append(cfgs, simConfig(policy, jobs, opt.Seed))
		}
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return Table{}, err
	}
	for qi, proc := range procs {
		var base metrics.Summary
		for pi, policy := range policies {
			s := results[qi*len(policies)+pi].Summary
			if policy.Name == "optimus" {
				base = s
			}
			t.Rows = append(t.Rows, []string{
				proc.name, policy.Name,
				f2(s.AvgJCT / base.AvgJCT),
				f2(s.Makespan / base.Makespan),
			})
		}
	}
	return t, nil
}

// fig18AllocAblation regenerates Fig. 18: baseline allocators paired with
// Optimus placement, isolating the marginal-gain allocation algorithm.
func fig18AllocAblation(opt Options) (Table, error) {
	t := Table{
		ID:      "fig18",
		Title:   "Resource-allocation ablation (all use Optimus placement)",
		Columns: []string{"allocator", "norm-JCT", "norm-makespan"},
		Notes:   "paper: allocation contributes ~62% JCT / 31% makespan reduction",
	}
	policies := []sim.Policy{
		sim.OptimusPolicy(),
		sim.Hybrid("drf-alloc", sim.DRFAllocatorOnly, core.Place),
		sim.Hybrid("tetris-alloc", sim.TetrisAllocatorOnly, core.Place),
	}
	stats, err := testbedSweep(opt, policyCases(policies, func(c *sim.Config) {
		c.UseTrueModels = true  // isolate the algorithm from estimation noise
		c.ReconfigThreshold = 0 // and from the §7 churn damper
	}), 3)
	if err != nil {
		return Table{}, err
	}
	var baseJCT, baseSpan float64
	for i, policy := range policies {
		jct, span := stats[i].jct, stats[i].span
		if policy.Name == "optimus" {
			baseJCT, baseSpan = jct, span
		}
		t.Rows = append(t.Rows, []string{
			policy.Name, f2(jct / baseJCT), f2(span / baseSpan),
		})
	}
	return t, nil
}

// fig19PlacementAblation regenerates Fig. 19: baseline placements paired
// with Optimus allocation, isolating the Theorem-1 placement scheme.
func fig19PlacementAblation(opt Options) (Table, error) {
	t := Table{
		ID:      "fig19",
		Title:   "Task-placement ablation (all use Optimus allocation)",
		Columns: []string{"placement", "norm-JCT", "norm-makespan"},
		Notes:   "paper: ~10% vs Tetris packing, ~15% vs load-balancing spread",
	}
	policies := []sim.Policy{
		sim.OptimusPolicy(),
		sim.Hybrid("spread-place", core.Allocate, sim.DRFPolicy().Place),
		sim.Hybrid("pack-place", core.Allocate, sim.TetrisPolicy().Place),
	}
	stats, err := testbedSweep(opt, policyCases(policies, func(c *sim.Config) {
		c.UseTrueModels = true
		c.ReconfigThreshold = 0
	}), 3)
	if err != nil {
		return Table{}, err
	}
	var baseJCT, baseSpan float64
	for i, policy := range policies {
		jct, span := stats[i].jct, stats[i].span
		if policy.Name == "optimus" {
			baseJCT, baseSpan = jct, span
		}
		t.Rows = append(t.Rows, []string{
			policy.Name, f2(jct / baseJCT), f2(span / baseSpan),
		})
	}
	return t, nil
}

// overheadScaling reproduces §6.2's resource-adjustment overhead figure: the
// share of the makespan spent in checkpoint-based reconfiguration.
func overheadScaling(opt Options) (Table, error) {
	jobs := workload.Generate(workload.GenConfig{
		N: 15, Horizon: 4000, Seed: opt.Seed + 100, Downscale: 0.03,
	})
	results, err := runConfigs(opt, []sim.Config{
		simConfig(sim.OptimusPolicy(), jobs, opt.Seed),
	})
	if err != nil {
		return Table{}, err
	}
	res := results[0]
	return Table{
		ID:      "overhead",
		Title:   "Resource-adjustment (checkpoint scaling) overhead",
		Columns: []string{"scaling-overhead%", "makespan(s)"},
		Rows: [][]string{{
			f2(res.Summary.ScalingFrac * 100),
			fmt.Sprintf("%.0f", res.Summary.Makespan),
		}},
		Notes: "paper reports 2.54% of makespan",
	}, nil
}
