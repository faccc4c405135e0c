package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"optimus/internal/cluster"
)

// nodeCapacity is every workload's node: 32 cores, 128 GB.
var nodeCapacity = cluster.Resources{cluster.CPU: 32, cluster.Memory: 128}

// baseSeconds is the run length the workload sizes below were chosen for.
const baseSeconds = 20

// env is what one workload run is given.
type env struct {
	workload string
	seed     int64
	// seconds is the run length. Closed-loop traffic runs that long; rounds
	// and replays run a fixed count sized to take about that long at the
	// baseline (round cost grows with the round number, so a fixed
	// duration would compare different rounds on two commits). Count-based
	// work also has a deadline of six times seconds; work not done by then
	// counts as failed.
	seconds float64
	// work scales the fixed counts: 1 is the full workload at baseSeconds.
	work float64
	// single has count-based work executed once. An end-to-end run executes
	// it several times, identically, and reports each operation's fastest
	// execution (see fastest); the traced run's shortened runs do not.
	single bool
	size   float64 // the runner's
	// rec is nil on an untraced run.
	rec *recorder
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// paced adds the open-loop phase after a serve-* closed loop.
	paced bool
	tmp   string // scratch directory for WALs, removed by the caller
}

func (e *env) traced() bool { return e.rec != nil }

// count scales a baseline count (chosen for baseSeconds) by e.work.
func (e *env) count(base, min int) int {
	n := int(math.Round(float64(base) * e.work))
	if n < min {
		n = min
	}
	return n
}

// execs is how many identical executions a workload that wants n gets.
func (e *env) execs(n int) int {
	if e.single {
		return 1
	}
	return n
}

// sized scales a job or node count by e.size.
func (e *env) sized(base, min int) int {
	n := int(math.Round(float64(base) * e.size))
	if n < min {
		n = min
	}
	return n
}

// deadline is when count-based work is cut off.
func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(6 * e.seconds * float64(time.Second)))
}

// clients is the load generator's concurrency: never more than the cores.
func clients() int { return runtime.NumCPU() }

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any entry makes the run incorrect.
	problems []string
	// e2e holds the end-to-end metrics by name (setup_s included).
	e2e map[string]metric
	// extra are workload-specific measurements printed for the reader but
	// not part of the BENCHMARK.json contract (raw JCT, recover_s, p99).
	extra []metric
	// incr is the incremental-session counter delta over the measured phase
	// and rt the Go runtime's; both feed layer metrics of a traced run.
	incr incrDelta
	rt   runtimeDelta
}

func newOutcome() *outcome { return &outcome{e2e: make(map[string]metric)} }

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 { // a broken run repeats itself; keep the head
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, unit string, n int) {
	o.e2e[name] = metric{Name: name, Value: v, Unit: unit, N: n}
}

func (o *outcome) add(name string, v float64, unit string, n int) {
	o.extra = append(o.extra, metric{Name: name, Value: v, Unit: unit, N: n})
}

// latency sets op_ms_p50 and op_ms_p90 from the primary operation's samples
// (milliseconds). The untraced run refuses a p90 with fewer than ten samples
// beyond it; a higher percentile the count supports is printed beside them.
func (o *outcome) latency(samplesMs []float64) {
	s := sortedCopy(samplesMs)
	tail := tailQuantile(len(s))
	o.set("op_ms_p50", percentile(s, 0.5), "ms", len(s))
	o.set("op_ms_p90", percentile(s, 0.9), "ms", len(s))
	if tail > 0.9 {
		o.add(fmt.Sprintf("op_ms_p%g", tail*100), percentile(s, tail), "ms", len(s))
	}
}

// workloadFunc runs one workload once.
type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"replay":       runReplay,
	"rounds-dense": func(e *env) (*outcome, error) { return runRounds(e, denseShape) },
	"rounds-wide":  func(e *env) (*outcome, error) { return runRounds(e, wideShape) },
	"serve-read":   func(e *env) (*outcome, error) { return runServe(e, readMix) },
	"serve-write":  func(e *env) (*outcome, error) { return runServe(e, writeMix) },
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// outDir is where the harness writes: WAL scratch, span files, results.
// It lives inside the checkout and is ignored by git.
func outDir(root string) string { return filepath.Join(root, ".bench_build") }
