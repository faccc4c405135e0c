// Command optimus-trace generates, inspects and replays workload traces.
//
// Usage:
//
//	optimus-trace gen     -n 30 -arrivals poisson -o trace.csv
//	optimus-trace info    trace.csv
//	optimus-trace run     trace.csv -policy optimus -timeline tl.csv -jcts jcts.csv
//	optimus-trace faults  -trace trace.csv -mtbf 50000 -o faults.txt
//	optimus-trace run     trace.csv -faults faults.txt
//	optimus-trace spans   trace.csv -o spans.json
//	optimus-trace explain trace.csv -job 3
//	optimus-trace wal     ./wal-dir -o records.jsonl
//	optimus-trace jsonok  <response.json
//
// `spans` replays a trace with scheduler tracing on and emits the span tree
// as Chrome trace-event JSON (load in Perfetto); `explain` renders one job's
// full decision audit — every marginal-gain grant and placement. Both run on
// a built-in demo workload when FILE is omitted (see internal/obs).
//
// Traces are plain CSV (see internal/trace), so a run is fully replayable
// and its outputs feed standard plotting tools. Fault schedules are plain
// text (see internal/chaos): generating one with `faults` and passing it to
// `run` under different -policy values replays the identical fault sequence
// against every scheduler.
package main

import (
	"flag"
	"fmt"
	"os"

	"optimus/internal/chaos"
	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/trace"
	"optimus/internal/workload"
)

// lg is the tool's leveled logger (CLI format: no timestamps, component
// prefix "optimus-trace"). Every subcommand shares it.
var lg = obs.NewLogger(os.Stderr, "optimus-trace", nil)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "faults":
		cmdFaults(os.Args[2:])
	case "spans":
		cmdSpans(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "wal":
		cmdWAL(os.Args[2:])
	case "bundle":
		cmdBundle(os.Args[2:])
	case "jsonok":
		cmdJSONOK()
	case "version", "-version", "--version":
		fmt.Println("optimus-trace", obs.Build())
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  optimus-trace gen    [-n N] [-horizon S] [-seed N] [-downscale F] [-arrivals uniform|poisson|google] -o FILE
  optimus-trace info   FILE
  optimus-trace run    FILE [-policy optimus|drf|tetris] [-seed N] [-faults FILE] [-timeline FILE] [-jcts FILE]
  optimus-trace faults [-trace FILE] [-seed N] [-horizon S] [-mtbf S] [-kill-rate R] [-straggler-rate R] -o FILE
  optimus-trace spans   [FILE] [-policy optimus|drf|tetris] [-seed N] [-o FILE]
  optimus-trace explain [FILE] -job N [-policy optimus|drf|tetris] [-seed N]
  optimus-trace wal     DIR [-o FILE] [-raw]
  optimus-trace bundle  URL|FILE [-n N] [-diff URL|FILE] [-o FILE]
  optimus-trace jsonok  <FILE
  optimus-trace version`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 30, "number of jobs")
	horizon := fs.Float64("horizon", 8000, "arrival window seconds")
	seed := fs.Int64("seed", 1, "random seed")
	downscale := fs.Float64("downscale", 0.03, "dataset downscale factor")
	arrivals := fs.String("arrivals", "uniform", "arrival process: uniform|poisson|google")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		lg.Fatalf("%v", err)
	}
	var proc workload.ArrivalProcess
	switch *arrivals {
	case "uniform":
		proc = workload.UniformArrivals
	case "poisson":
		proc = workload.PoissonArrivals
	case "google":
		proc = workload.GoogleTraceArrivals
	default:
		lg.Fatalf("unknown arrival process %q", *arrivals)
	}
	jobs := workload.Generate(workload.GenConfig{
		N: *n, Horizon: *horizon, Seed: *seed,
		Downscale: *downscale, Arrivals: proc,
	})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteJobs(w, jobs); err != nil {
		lg.Fatalf("%v", err)
	}
	if *out != "" {
		lg.Infof("wrote %d jobs to %s", len(jobs), *out)
	}
}

func loadJobs(path string) []workload.JobSpec {
	f, err := os.Open(path)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	defer f.Close()
	jobs, err := trace.ReadJobs(f)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	return jobs
}

func cmdInfo(args []string) {
	if len(args) < 1 {
		usage()
	}
	jobs := loadJobs(args[0])
	byModel := map[string]int{}
	byMode := map[string]int{}
	var first, last float64
	for i, j := range jobs {
		byModel[j.Model.Name]++
		byMode[j.Mode.String()]++
		if i == 0 || j.Arrival < first {
			first = j.Arrival
		}
		if j.Arrival > last {
			last = j.Arrival
		}
	}
	fmt.Printf("%d jobs, arrivals %.0fs..%.0fs\n", len(jobs), first, last)
	fmt.Printf("modes: %v\n", byMode)
	fmt.Printf("models: %v\n", byModel)
}

func cmdRun(args []string) {
	if len(args) < 1 {
		usage()
	}
	path := args[0]
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	policyName := fs.String("policy", "optimus", "scheduler: optimus|drf|tetris")
	seed := fs.Int64("seed", 1, "simulation seed")
	faultsFile := fs.String("faults", "", "chaos schedule file to replay against the run")
	timelineOut := fs.String("timeline", "", "write per-interval stats CSV here")
	jctsOut := fs.String("jcts", "", "write per-job completion times CSV here")
	if err := fs.Parse(args[1:]); err != nil {
		lg.Fatalf("%v", err)
	}
	var faults *chaos.Schedule
	if *faultsFile != "" {
		f, err := os.Open(*faultsFile)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		sched, err := chaos.ParseSchedule(f)
		f.Close()
		if err != nil {
			lg.Fatalf("%s: %v", *faultsFile, err)
		}
		faults = &sched
	}
	policy := policyByName(*policyName)
	jobs := loadJobs(path)
	res, err := sim.Run(sim.Config{
		Cluster:           cluster.Testbed(),
		Jobs:              jobs,
		Policy:            policy,
		Interval:          600,
		Seed:              *seed,
		PreRunSamples:     6,
		SpeedNoise:        0.03,
		LossNoise:         0.01,
		PriorityFactor:    0.95,
		ScalingBase:       12,
		ScalingPerTask:    0.3,
		ReconfigThreshold: 0.15,
		Faults:            faults,
	})
	if err != nil {
		lg.Fatalf("%v", err)
	}
	fmt.Printf("%s: %s\n", policy.Name, res.Summary)
	if len(res.Unfinished) > 0 {
		fmt.Printf("unfinished jobs: %v\n", res.Unfinished)
	}
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		if err := trace.WriteTimeline(f, res.Timeline); err != nil {
			lg.Fatalf("%v", err)
		}
		lg.Infof("timeline → %s", *timelineOut)
	}
	if *jctsOut != "" {
		f, err := os.Create(*jctsOut)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		if err := trace.WriteJCTs(f, res.JCTs); err != nil {
			lg.Fatalf("%v", err)
		}
		lg.Infof("jcts → %s", *jctsOut)
	}
}

// cmdFaults draws a random chaos schedule for a trace's jobs against the
// testbed nodes and writes it in the internal/chaos file format. The output
// is a pure function of the flags, so regenerating with the same arguments
// reproduces the schedule exactly.
func cmdFaults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace whose job IDs receive job-level faults")
	seed := fs.Int64("seed", 1, "generator seed")
	horizon := fs.Float64("horizon", 30000, "faults drawn in [0, horizon) seconds")
	mtbf := fs.Float64("mtbf", 50000, "per-node mean time between crashes (0 disables)")
	outage := fs.Float64("outage", 1200, "mean node outage seconds")
	killRate := fs.Float64("kill-rate", 1.0, "expected task kills per job over the horizon")
	stragRate := fs.Float64("straggler-rate", 0.8, "expected stragglers per job over the horizon")
	ckptProb := fs.Float64("ckpt-fail-prob", 0.2, "per-job checkpoint-write failure probability")
	netSlow := fs.Int("net-slow", 1, "fabric-wide slowdown events")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		lg.Fatalf("%v", err)
	}
	var jobIDs []int
	if *tracePath != "" {
		for _, j := range loadJobs(*tracePath) {
			jobIDs = append(jobIDs, j.ID)
		}
	}
	var nodes []string
	for _, n := range cluster.Testbed().Nodes() {
		nodes = append(nodes, n.ID)
	}
	sched := chaos.Generate(chaos.GenConfig{
		Seed: *seed, Horizon: *horizon,
		Nodes: nodes, NodeMTBF: *mtbf, MeanOutage: *outage,
		Jobs: jobIDs, TaskKillRate: *killRate, StragglerRate: *stragRate,
		CkptFailProb: *ckptProb, NetSlowCount: *netSlow,
	})
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := chaos.WriteSchedule(w, sched); err != nil {
		lg.Fatalf("%v", err)
	}
	if *out != "" {
		lg.Infof("wrote %d faults to %s", sched.Len(), *out)
	}
}
