// Parallel execution engine for the experiment harness.
//
// Every paper exhibit decomposes into independent simulator runs — one per
// (policy, repetition, sweep-point) combination — and each sim.Config is
// fully self-contained: it owns its cluster, derives every random draw from
// its own Seed, and shares only immutable inputs (job specs, model physics)
// with its siblings. The engine fans those configurations across a worker
// pool and collects results in submission order, so the same seed produces
// byte-identical tables whether the pool has one worker or GOMAXPROCS.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"optimus/internal/metrics"
	"optimus/internal/sim"
	"optimus/internal/workload"
)

// workers resolves the worker-pool width: Options.Parallel when set,
// otherwise every available core.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// simRuns counts sim.Run executions across the process, for the CLI's
// wall-clock/run-count report.
var simRuns int64

// RunCount reports how many simulator runs the experiments package has
// executed so far in this process.
func RunCount() int64 { return atomic.LoadInt64(&simRuns) }

// forEach runs fn(i) for every i in [0, n) on `workers` goroutines. Work is
// handed out through an atomic cursor, so completion order is arbitrary but
// each index runs exactly once; callers write results into index i of a
// pre-sized slice to keep collection order-stable. All indices run even when
// some fail; the lowest-index error is returned, matching what a serial loop
// that failed fast would have reported deterministically.
func forEach(workers, n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runConfigs executes independent simulator configurations on the worker
// pool. results[i] corresponds to cfgs[i] regardless of completion order.
func runConfigs(opt Options, cfgs []sim.Config) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cfgs))
	err := forEach(opt.workers(), len(cfgs), func(i int) error {
		atomic.AddInt64(&simRuns, 1)
		res, rerr := sim.Run(cfgs[i])
		if rerr != nil {
			return rerr
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// testbedCase is one column of a testbed sweep: a policy plus an optional
// config mutation, averaged over the shared repetition workloads.
type testbedCase struct {
	policy sim.Policy
	mutate func(*sim.Config)
}

// policyStats aggregates one testbedCase's repetitions.
type policyStats struct {
	jct, span   float64
	jcts, spans []float64
}

// testbedSweep runs every case over `reps` testbed workloads (the same rep
// workloads for every case, as the paper averages over shared repetitions)
// through the parallel engine in a single fan-out, and returns per-case mean
// JCT/makespan plus the per-rep samples.
func testbedSweep(opt Options, cases []testbedCase, reps int) ([]policyStats, error) {
	// Repetition workloads are shared across cases and never mutated by the
	// simulator, so generating each once is safe under the pool.
	repJobs := make([][]workload.JobSpec, reps)
	for r := range repJobs {
		repJobs[r] = workload.Generate(workload.GenConfig{
			N: 15, Horizon: 4000, Seed: opt.Seed + int64(r*997), Downscale: 0.03,
		})
	}
	cfgs := make([]sim.Config, 0, len(cases)*reps)
	for _, c := range cases {
		for r := 0; r < reps; r++ {
			cfg := simConfig(c.policy, repJobs[r], opt.Seed+int64(r))
			if c.mutate != nil {
				c.mutate(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runConfigs(opt, cfgs)
	if err != nil {
		return nil, err
	}
	stats := make([]policyStats, len(cases))
	for ci := range cases {
		st := &stats[ci]
		for r := 0; r < reps; r++ {
			res := results[ci*reps+r]
			st.jcts = append(st.jcts, res.Summary.AvgJCT)
			st.spans = append(st.spans, res.Summary.Makespan)
		}
		st.jct, st.span = metrics.Mean(st.jcts), metrics.Mean(st.spans)
	}
	return stats, nil
}
