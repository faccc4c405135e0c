package main

import (
	"fmt"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// The replay workload is the paper's own experiment (§6.1): Poisson traces
// of zoo jobs replayed through sim.Run under the Optimus policy with online
// fitting, one trace per sub-seed. Its operation is one scheduling interval
// of the simulator while jobs are still arriving; the cheap tail intervals
// that drain the last few jobs are left out of the latency samples (their
// number swings between seeds by 2x) but not out of the wall time behind
// ops_per_s. The paper's 3000 jobs on 100 nodes are scaled to 0.6 so that
// two traces fit twenty seconds three times over.
const (
	replayJobs     = 1800
	replayNodes    = 60
	replayHorizon  = 60000.0 // seconds of simulated arrivals
	replayInterval = 600.0
	replayRuns     = 2 // traces per run at baseSeconds; ~2.7 s each at the baseline
	replayExecs    = 3 // identical executions of every trace in an end-to-end run
)

// replayConfig is the simulator configuration of the workload, shared with
// the sim.run probe so both drive the same code path.
func replayConfig(jobs []workload.JobSpec, nodes int, seed int64) sim.Config {
	return sim.Config{
		Cluster:       cluster.Uniform(nodes, nodeCapacity),
		Jobs:          jobs,
		Policy:        sim.OptimusPolicy(),
		Interval:      replayInterval,
		Seed:          seed,
		PreRunSamples: 5,
		SpeedNoise:    0.03,
		LossNoise:     0.03,
	}
}

// stampedPolicy returns the Optimus policy with a hook at the top of every
// Allocate call. The simulator enters Allocate once per scheduling
// interval, so the stamps cut a run into intervals from outside.
func stampedPolicy(stamp func()) sim.Policy {
	base := sim.OptimusPolicy()
	p := base
	p.Session = func() sim.Policy {
		s := base.Session()
		inner := s.Allocate
		s.Allocate = func(jobs []*core.JobInfo, capacity cluster.Resources) map[int]core.Allocation {
			stamp()
			return inner(jobs, capacity)
		}
		return s
	}
	return p
}

// idealRates caches, per (model, mode), the best ground-truth training rate
// in epochs/s over all (p, w) up to 32 each.
type idealRates map[string]float64

// jct is a job's completion time alone on an empty cluster at its best
// (p, w): the yardstick sched_quality divides by, a constant of the inputs.
func (c idealRates) jct(spec workload.JobSpec) float64 {
	key := spec.Model.Name + "/" + spec.Mode.String()
	best, ok := c[key]
	if !ok {
		for p := 1; p <= 32; p++ {
			for w := 1; w <= 32; w++ {
				if spec.Mode == speedfit.Sync && w > spec.Model.GlobalBatch {
					break
				}
				if r := sim.EpochsPerSecond(spec, spec.Model.TrueSpeed(spec.Mode, p, w)); r > best {
					best = r
				}
			}
		}
		c[key] = best
	}
	return spec.TotalEpochs() / best
}

func runReplay(e *env) (*outcome, error) {
	out := newOutcome()
	nJobs, nNodes := e.sized(replayJobs, 36), e.sized(replayNodes, 2)
	runs := e.count(replayRuns, 1)

	execs := e.execs(replayExecs)

	// Set-up: generate a trace and run a tenth-size warm-up replay so lazy
	// initialisation (zoo tables, first-use allocations) is out of the way.
	// It touches no disk, so half the set-ups the daemon workloads take do.
	var setups []float64
	for i := 0; i < (e.setups+1)/2; i++ {
		t0 := time.Now()
		_ = replayTrace(subSeed(e.seed, 0), nJobs, replayHorizon)
		warm := replayTrace(e.seed-1, max(nJobs/10, 18), replayHorizon)
		if _, err := sim.Run(replayConfig(warm, max(nNodes/10, 1), e.seed)); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups), "s", len(setups))

	loaded := int(replayHorizon / replayInterval) // intervals with arrivals
	var (
		// intervalMs[x] holds execution x's loaded intervals, trace after
		// trace; segmentS[x] every stretch of its sim.Run calls, from the call
		// to the first Allocate, between Allocates, and to the return.
		intervalMs       = make([][]float64, execs)
		segmentS         = make([][]float64, execs)
		avgJCT           = make([]float64, runs) // per trace, as the first execution found it
		completed        int
		ideal, actual    float64
		jctSum, makespan float64
		intervals        int
	)
	rates := make(idealRates)
	start := time.Now()
	deadline := e.deadline(start)
	rtBefore := readRuntime()
	// Executions outermost, so that two executions of one trace lie a whole
	// pass over the traces apart.
	for x := 0; x < execs; x++ {
		for r := 0; r < runs; r++ {
			out.attempted += nJobs
			if time.Now().After(deadline) {
				out.failed += nJobs
				continue
			}
			seed := subSeed(e.seed, r)
			jobs := replayTrace(seed, nJobs, replayHorizon)
			var stamps []time.Time
			cfg := replayConfig(jobs, nNodes, seed)
			cfg.Policy = stampedPolicy(func() { stamps = append(stamps, time.Now()) })
			var tracerEpoch time.Time
			if e.traced() {
				tracerEpoch = time.Now()
				cfg.Trace = obs.NewTracer(1 << 18)
			}
			sp := e.rec.begin(0, int64(r+1), "sim", "sim.Run")
			t0 := time.Now()
			res, err := sim.Run(cfg)
			end := time.Now()
			e.rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("sim.Run: %w", err)
			}
			if e.traced() {
				foldSpans(e.rec, cfg.Trace.Spans(), e.rec.since(tracerEpoch), "sim",
					func(obs.Span) (int64, int64) { return sp, int64(r + 1) })
			}
			stamps = append(stamps, end)
			for i := 1; i < len(stamps) && i <= loaded; i++ {
				intervalMs[x] = append(intervalMs[x], ms(stamps[i].Sub(stamps[i-1])))
			}
			for i, at := range stamps {
				from := t0
				if i > 0 {
					from = stamps[i-1]
				}
				segmentS[x] = append(segmentS[x], at.Sub(from).Seconds())
			}

			out.failed += len(res.Unfinished)
			if len(res.Unfinished) > 0 {
				out.problemf("replay of trace %d left %d of %d jobs unfinished", r+1, len(res.Unfinished), nJobs)
			}
			if x > 0 {
				// The simulation decides nothing by the clock.
				if res.Summary.AvgJCT != avgJCT[r] {
					out.problemf("execution %d of trace %d has an average JCT of %v, the first %v",
						x+1, r+1, res.Summary.AvgJCT, avgJCT[r])
				}
				if len(segmentS[x]) > len(segmentS[0]) {
					out.problemf("execution %d of trace %d ran more scheduling intervals than the first", x+1, r+1)
				}
				continue
			}
			avgJCT[r] = res.Summary.AvgJCT
			for _, j := range jobs {
				if jct, ok := res.JCTs[j.ID]; ok {
					ideal += rates.jct(j)
					actual += jct
				}
			}
			completed += res.Summary.Completed
			jctSum += res.Summary.AvgJCT * float64(res.Summary.Completed)
			makespan = max(makespan, res.Summary.Makespan)
			intervals += res.Intervals
			if st, ok := res.Metrics.IncrStats(); ok {
				out.incr.add(incrSince(core.IncrStats{}, st, res.Intervals))
			}
		}
	}
	out.rt = readRuntime().since(rtBefore, time.Since(start))
	if completed == 0 || out.failed > 0 {
		return nil, fmt.Errorf("replay: %d of %d jobs not completed before the deadline", out.failed, out.attempted)
	}

	out.latency(fastest(intervalMs))
	// The replays' wall time, every stretch at its fastest execution.
	segments := fastest(segmentS)
	out.set("ops_per_s", float64(completed)/sum(segments), "1/s", len(segments))
	out.set("sched_quality", ideal/actual, "ratio", completed)

	out.add("executions", float64(execs), "count", 0)
	out.add("replay_wall_s", sum(segments)/float64(runs), "s", runs)
	out.add("avg_jct_s", jctSum/float64(completed), "s", completed)
	out.add("makespan_s", makespan, "s", 0)
	out.add("sim_intervals", float64(intervals), "count", 0)
	return out, nil
}

// foldSpans records the program's own tracer spans as descendants of the
// harness spans that caused them. offset is the tracer's epoch in recorder
// nanoseconds; program names the package whose pipeline spans these are
// (the two kernel spans belong to core whichever driver ran them); place
// returns the harness parent and trace id of a root program span.
func foldSpans(rec *recorder, spans []obs.Span, offset int64, program string, place func(obs.Span) (parent, trace int64)) {
	ids := make(map[int64]int64, len(spans))
	traces := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent, known := ids[s.Parent]
		trace := traces[s.Parent]
		if !known {
			parent, trace = place(s)
		}
		layer := program
		if s.Name == "alloc-kernel" || s.Name == "place-kernel" {
			layer = "core"
		}
		ids[s.ID] = rec.add(parent, trace, layer, s.Name, offset+s.Start, offset+s.Start+s.Dur)
		traces[s.ID] = trace
	}
}
