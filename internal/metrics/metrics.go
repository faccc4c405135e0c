// Package metrics collects and summarizes the evaluation quantities of §6:
// per-job completion times (JCT), makespan, and per-interval timelines of
// running task counts and normalized CPU utilization (Fig. 13/14).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"optimus/internal/core"
	"optimus/internal/obs"
)

// IntervalStats is one snapshot of cluster state, taken per scheduling
// interval (Fig. 14's x-axis).
type IntervalStats struct {
	Time         float64 // seconds since experiment start
	RunningTasks int     // total PS + workers deployed
	RunningJobs  int
	WaitingJobs  int
	// WorkerUtil / PSUtil are the mean normalized CPU utilizations of
	// worker / parameter-server tasks: the fraction of a training step the
	// task spends computing rather than waiting (Fig. 14b/c).
	WorkerUtil float64
	PSUtil     float64
	// ClusterShare is the fraction of total cluster CPU currently allocated.
	ClusterShare float64
}

// Recorder accumulates per-run measurements.
type Recorder struct {
	arrivals    map[int]float64
	completions map[int]float64
	timeline    []IntervalStats
	// scaling bookkeeping (§6.2 "resource adjustment overhead")
	scalingTime float64
	// fault/recovery bookkeeping (§5 resilience, driven by internal/chaos)
	faults       int
	restarts     int
	wastedWork   float64
	recoveryTime float64

	// incr holds the cumulative round and migration counters of the run's
	// scheduling session pair, overwritten each interval because the session
	// already accumulates.
	incr    core.IncrStats
	incrSet bool

	// wall-clock latency histograms of the scheduler hot path (log-bucketed,
	// see obs.BucketBound). Unlike the simulated-time counters above these
	// measure real elapsed time, so they answer "how expensive is a
	// scheduling decision", not "how long did the modeled cluster run".
	durInterval obs.Histogram
	durRefit    obs.Histogram // lossfit.FitAll observes from its workers
	durAlloc    obs.Histogram
	durPlace    obs.Histogram
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		arrivals:    make(map[int]float64),
		completions: make(map[int]float64),
	}
}

// Arrive records job submission.
func (r *Recorder) Arrive(jobID int, t float64) { r.arrivals[jobID] = t }

// Complete records job completion.
func (r *Recorder) Complete(jobID int, t float64) { r.completions[jobID] = t }

// Snapshot appends one timeline entry.
func (r *Recorder) Snapshot(s IntervalStats) { r.timeline = append(r.timeline, s) }

// AddScalingTime accounts job-seconds spent on checkpoint/restart scaling.
func (r *Recorder) AddScalingTime(d float64) { r.scalingTime += d }

// AddFault counts one injected fault.
func (r *Recorder) AddFault() { r.faults++ }

// AddRestarts counts tasks restarted by fault recovery.
func (r *Recorder) AddRestarts(n int) { r.restarts += n }

// AddWastedWork accounts job-seconds of progress lost to a failure and
// recomputed after the checkpoint restore.
func (r *Recorder) AddWastedWork(d float64) { r.wastedWork += d }

// AddRecoveryTime accounts job-seconds paused in checkpoint-restore recovery.
func (r *Recorder) AddRecoveryTime(d float64) { r.recoveryTime += d }

// SetIncrStats overwrites the scheduling-session counters with the
// session's cumulative snapshot (called once per scheduling interval).
func (r *Recorder) SetIncrStats(s core.IncrStats) { r.incr, r.incrSet = s, true }

// IncrStats returns the last recorded scheduling-session counters; ok is
// false when no session policy ever reported.
func (r *Recorder) IncrStats() (s core.IncrStats, ok bool) { return r.incr, r.incrSet }

// Timeline returns the recorded snapshots.
func (r *Recorder) Timeline() []IntervalStats { return r.timeline }

// ObserveIntervalDuration records the wall-clock time of one full scheduling
// interval (estimator refits + allocate + place + deployment bookkeeping).
func (r *Recorder) ObserveIntervalDuration(seconds float64) { r.durInterval.Observe(seconds) }

// ObserveRefitDuration records the wall-clock time of one job's §3.1
// loss-curve refit. lossfit.FitAll calls it from its workers concurrently.
func (r *Recorder) ObserveRefitDuration(seconds float64) { r.durRefit.Observe(seconds) }

// ObserveAllocateDuration records the wall-clock time of one §4.1 allocation
// kernel invocation.
func (r *Recorder) ObserveAllocateDuration(seconds float64) { r.durAlloc.Observe(seconds) }

// ObservePlaceDuration records the wall-clock time of one §4.2 placement
// pass, including fragmentation retries.
func (r *Recorder) ObservePlaceDuration(seconds float64) { r.durPlace.Observe(seconds) }

// IntervalDuration exposes the interval-latency histogram for summaries.
func (r *Recorder) IntervalDuration() *obs.Histogram { return &r.durInterval }

// RefitDuration exposes the refit-latency histogram for summaries.
func (r *Recorder) RefitDuration() *obs.Histogram { return &r.durRefit }

// AllocateDuration exposes the allocate-latency histogram for summaries.
func (r *Recorder) AllocateDuration() *obs.Histogram { return &r.durAlloc }

// PlaceDuration exposes the place-latency histogram for summaries.
func (r *Recorder) PlaceDuration() *obs.Histogram { return &r.durPlace }

// Summary is the digest of one experiment run.
type Summary struct {
	Completed   int
	AvgJCT      float64
	MedianJCT   float64
	P95JCT      float64
	StddevJCT   float64
	Makespan    float64
	ScalingFrac float64 // scaling overhead as a fraction of makespan (§6.2)
	// Fault/recovery digest (§5 resilience; zero on fault-free runs).
	FaultsInjected int
	TasksRestarted int
	WastedWork     float64 // job-seconds of recomputed progress
	RecoveryTime   float64 // job-seconds paused in checkpoint restores
}

// String implements fmt.Stringer. Fault/recovery counters are appended only
// when faults were injected, so fault-free output stays unchanged.
func (s Summary) String() string {
	out := fmt.Sprintf("jobs=%d avgJCT=%.0fs medJCT=%.0fs p95=%.0fs sd=%.0fs makespan=%.0fs scaling=%.2f%%",
		s.Completed, s.AvgJCT, s.MedianJCT, s.P95JCT, s.StddevJCT, s.Makespan, s.ScalingFrac*100)
	if s.FaultsInjected > 0 {
		out += fmt.Sprintf(" faults=%d restarts=%d wasted=%.0fs recovery=%.0fs",
			s.FaultsInjected, s.TasksRestarted, s.WastedWork, s.RecoveryTime)
	}
	return out
}

// JCT returns the completion time of one job, or NaN if incomplete.
func (r *Recorder) JCT(jobID int) float64 {
	c, ok := r.completions[jobID]
	if !ok {
		return math.NaN()
	}
	return c - r.arrivals[jobID]
}

// JCTs returns all completed jobs' JCTs sorted ascending.
func (r *Recorder) JCTs() []float64 {
	out := make([]float64, 0, len(r.completions))
	for id, c := range r.completions {
		out = append(out, c-r.arrivals[id])
	}
	sort.Float64s(out)
	return out
}

// Summarize computes the run digest. Jobs never completed are excluded from
// JCT statistics but the caller can detect them via Completed < submitted.
func (r *Recorder) Summarize() Summary {
	jcts := r.JCTs()
	s := Summary{
		Completed:      len(jcts),
		FaultsInjected: r.faults,
		TasksRestarted: r.restarts,
		WastedWork:     r.wastedWork,
		RecoveryTime:   r.recoveryTime,
	}
	if len(jcts) == 0 {
		return s
	}
	var sum float64
	for _, v := range jcts {
		sum += v
	}
	s.AvgJCT = sum / float64(len(jcts))
	s.MedianJCT = percentile(jcts, 0.5)
	s.P95JCT = percentile(jcts, 0.95)
	var ss float64
	for _, v := range jcts {
		d := v - s.AvgJCT
		ss += d * d
	}
	s.StddevJCT = math.Sqrt(ss / float64(len(jcts)))

	first := math.Inf(1)
	for _, a := range r.arrivals {
		if a < first {
			first = a
		}
	}
	last := math.Inf(-1)
	for _, c := range r.completions {
		if c > last {
			last = c
		}
	}
	if !math.IsInf(first, 1) && !math.IsInf(last, -1) {
		s.Makespan = last - first
	}
	if s.Makespan > 0 {
		s.ScalingFrac = r.scalingTime / s.Makespan
	}
	return s
}

// percentile returns the p-quantile of sorted values using linear
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
