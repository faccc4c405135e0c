package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/workload"
)

// policyByName resolves a -policy flag value.
func policyByName(name string) sim.Policy {
	switch name {
	case "optimus":
		return sim.OptimusPolicy()
	case "drf":
		return sim.DRFPolicy()
	case "tetris":
		return sim.TetrisPolicy()
	default:
		lg.Fatalf("unknown policy %q", name)
		panic("unreachable")
	}
}

// tracedSim runs one simulation with tracing and auditing attached. An empty
// path runs the built-in demo mix (a Fig-11-style downscaled workload), so
// `optimus-trace spans` works with no arguments.
func tracedSim(path, policyName string, seed int64) (*obs.Tracer, *obs.AuditLog, *sim.Result) {
	var jobs []workload.JobSpec
	if path != "" {
		jobs = loadJobs(path)
	} else {
		jobs = workload.Generate(workload.GenConfig{
			N: 9, Horizon: 8000, Seed: seed + 100,
			Downscale: 0.03, Arrivals: workload.UniformArrivals,
		})
	}
	tr := obs.NewTracer(obs.DefaultSpanBuffer)
	au := obs.NewAuditLog(obs.DefaultAuditBuffer)
	res, err := sim.Run(sim.Config{
		Cluster:           cluster.Testbed(),
		Jobs:              jobs,
		Policy:            policyByName(policyName),
		Interval:          600,
		Seed:              seed,
		PreRunSamples:     6,
		SpeedNoise:        0.03,
		LossNoise:         0.01,
		PriorityFactor:    0.95,
		ScalingBase:       12,
		ScalingPerTask:    0.3,
		ReconfigThreshold: 0.15,
		Trace:             tr,
		Audit:             au,
	})
	if err != nil {
		lg.Fatalf("%v", err)
	}
	return tr, au, res
}

// splitFileArg peels an optional leading FILE operand off a subcommand's
// argument list (flags always start with '-').
func splitFileArg(args []string) (string, []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// cmdSpans replays a trace under full tracing and writes the span tree as
// Chrome trace-event JSON — load it at https://ui.perfetto.dev or in
// chrome://tracing. The run summary and hot-path latency digests go to
// stderr so stdout stays pipeable.
func cmdSpans(args []string) {
	file, rest := splitFileArg(args)
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	policyName := fs.String("policy", "optimus", "scheduler: optimus|drf|tetris")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(rest); err != nil {
		lg.Fatalf("%v", err)
	}
	tr, _, res := tracedSim(file, *policyName, *seed)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	spans := tr.Spans()
	if err := obs.WriteChromeTrace(w, spans); err != nil {
		lg.Fatalf("%v", err)
	}
	lg.Infof("%d spans over %d intervals (%s)", len(spans), res.Intervals, res.Summary)
	lg.Infof("interval %s", res.Metrics.IntervalDuration().Summary())
	lg.Infof("refit    %s", res.Metrics.RefitDuration().Summary())
	lg.Infof("allocate %s", res.Metrics.AllocateDuration().Summary())
	lg.Infof("place    %s", res.Metrics.PlaceDuration().Summary())
	if *out != "" {
		lg.Infof("trace → %s", *out)
	}
}

// cmdExplain replays a trace under auditing and renders one job's decision
// history under any -policy: one row per round the job was scheduled in,
// with the §4.1 inputs (effective priority, remaining work, predicted speed
// at the placed shape), the (PS, workers) granted, and the §4.2 placement.
// It exits non-zero when nothing was recorded for the job.
func cmdExplain(args []string) {
	file, rest := splitFileArg(args)
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	jobID := fs.Int("job", -1, "job ID to explain (required)")
	policyName := fs.String("policy", "optimus", "scheduler: optimus|drf|tetris")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(rest); err != nil {
		lg.Fatalf("%v", err)
	}
	if *jobID < 0 {
		lg.Fatalf("explain needs -job N")
	}
	_, au, res := tracedSim(file, *policyName, *seed)

	decisions := au.Decisions(*jobID)
	if len(decisions) == 0 {
		lg.Fatalf("no decisions recorded for job %d (unknown job, or audit ring wrapped; ran %d intervals)",
			*jobID, res.Intervals)
	}
	if jct, ok := res.JCTs[*jobID]; ok {
		fmt.Printf("job %d: completed, jct=%.0fs\n", *jobID, jct)
	} else {
		fmt.Printf("job %d: did not complete in %d intervals\n", *jobID, res.Intervals)
	}
	fmt.Printf("\n%d decisions:\n", len(decisions))
	fmt.Printf("%6s %9s %5s %10s %10s %7s %7s %7s %6s %5s  %s\n",
		"round", "time", "prio", "remaining", "speed", "grant", "ps/w", "servers", "spread", "even", "nodes")
	for _, d := range decisions {
		fmt.Printf("%6d %8.0fs %5.2f %10.4g %10.4g %3d/%-3d %3d/%-3d %7d %6d %5v  %s\n",
			d.Round, d.Time, d.Priority, d.Remaining, d.Speed, d.GrantPS, d.GrantWorkers,
			d.PS, d.Workers, d.Servers, d.Spread, d.Even, strings.Join(d.Nodes, ","))
	}
}
