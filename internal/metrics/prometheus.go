package metrics

import (
	"fmt"
	"io"
	"strconv"

	"optimus/internal/obs"
)

// Prometheus text-format export (version 0.0.4). The daemon's /metrics
// endpoint, its debug bundle and the operator's -metrics-addr server all
// write through one Exporter, so every component emits its families in the
// same shape.

// Exporter writes one exposition to an io.Writer. It emits each metric
// family's # HELP/# TYPE preamble once, however often the family recurs (the
// text format allows each header at most once per exposition), and keeps the
// first write error: after one, every method is a no-op and Err reports it.
type Exporter struct {
	w    io.Writer
	seen map[string]struct{}
	err  error
}

// NewExporter starts an exposition on w.
func NewExporter(w io.Writer) *Exporter {
	return &Exporter{w: w, seen: make(map[string]struct{})}
}

// Err returns the first write error, or nil.
func (e *Exporter) Err() error { return e.err }

func (e *Exporter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// preamble emits the HELP/TYPE header for name once per exposition.
func (e *Exporter) preamble(name, help, typ string) {
	if _, ok := e.seen[name]; ok {
		return
	}
	e.seen[name] = struct{}{}
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *Exporter) sample(name, help, typ string, v float64) {
	e.preamble(name, help, typ)
	e.printf("%s %s\n", name, fmtFloat(v))
}

// Counter writes one counter sample.
func (e *Exporter) Counter(name, help string, v float64) { e.sample(name, help, "counter", v) }

// Gauge writes one gauge sample.
func (e *Exporter) Gauge(name, help string, v float64) { e.sample(name, help, "gauge", v) }

// Labeled writes one gauge sample with a single label pair; call it once per
// label value (e.g. per component) to fill the family.
func (e *Exporter) Labeled(name, help, label, value string, v float64) {
	e.preamble(name, help, "gauge")
	e.printf("%s{%s=%q} %s\n", name, label, value, fmtFloat(v))
}

// Info writes one constant "info"-style gauge sample (value 1) carrying the
// given label pairs in order, e.g. optimus_build_info.
func (e *Exporter) Info(name, help string, labels [][2]string) {
	e.preamble(name, help, "gauge")
	e.printf("%s{", name)
	for i, kv := range labels {
		sep := ","
		if i == 0 {
			sep = ""
		}
		e.printf("%s%s=%q", sep, kv[0], kv[1])
	}
	e.printf("} 1\n")
}

// Histogram writes h as a Prometheus histogram family: cumulative
// _bucket{le="..."} samples for every log bucket, then _sum and _count, all
// from one load so _count equals the +Inf bucket.
func (e *Exporter) Histogram(name, help string, h *obs.Histogram) {
	e.preamble(name, help, "histogram")
	le, sum := h.Cumulative()
	for i, c := range le {
		bound := "+Inf"
		if i < obs.HistBuckets {
			bound = fmtFloat(obs.BucketBound(i))
		}
		e.printf("%s_bucket{le=%q} %d\n", name, bound, c)
	}
	e.printf("%s_sum %s\n%s_count %d\n", name, fmtFloat(sum), name, le[obs.HistBuckets])
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus exports the recorder's counters, the latest interval
// snapshot, and any non-empty latency histograms through e. The recorder's
// counters are not synchronized; callers that mutate them concurrently (the
// optimusd event loop) must hold their own lock around both the mutations
// and this export.
func (r *Recorder) WritePrometheus(e *Exporter) {
	e.Counter("optimus_jobs_arrived_total", "Jobs submitted to the scheduler.", float64(len(r.arrivals)))
	e.Counter("optimus_jobs_completed_total", "Jobs that reached convergence.", float64(len(r.completions)))
	e.Counter("optimus_intervals_total", "Scheduling intervals recorded.", float64(len(r.timeline)))
	e.Counter("optimus_scaling_time_seconds_total", "Job-seconds spent in checkpoint/restart rescaling pauses.", r.scalingTime)
	e.Counter("optimus_faults_injected_total", "Faults injected into the run.", float64(r.faults))
	e.Counter("optimus_tasks_restarted_total", "Tasks restarted by fault recovery.", float64(r.restarts))
	e.Counter("optimus_wasted_work_seconds_total", "Job-seconds of progress lost to failures and recomputed.", r.wastedWork)
	e.Counter("optimus_recovery_time_seconds_total", "Job-seconds paused in checkpoint-restore recovery.", r.recoveryTime)
	// The session migration families appear only once a scheduling session
	// has reported, so stateless policies' expositions omit them.
	if r.incrSet {
		e.Counter("optimus_incr_tasks_migrated_total", "Previously-running tasks whose node assignment changed.", float64(r.incr.TasksMigrated))
		e.Gauge("optimus_incr_last_tasks_migrated", "Tasks migrated in the last scheduling interval.", float64(r.incr.LastMigrated))
	}
	if n := len(r.timeline); n > 0 {
		last := r.timeline[n-1]
		e.Gauge("optimus_running_jobs", "Jobs with tasks deployed in the last interval.", float64(last.RunningJobs))
		e.Gauge("optimus_waiting_jobs", "Admitted jobs without a deployment in the last interval.", float64(last.WaitingJobs))
		e.Gauge("optimus_running_tasks", "PS + worker tasks deployed in the last interval.", float64(last.RunningTasks))
		e.Gauge("optimus_worker_utilization", "Mean normalized worker CPU utilization in the last interval.", last.WorkerUtil)
		e.Gauge("optimus_ps_utilization", "Mean normalized PS CPU utilization in the last interval.", last.PSUtil)
		e.Gauge("optimus_cluster_share", "Fraction of total cluster CPU allocated in the last interval.", last.ClusterShare)
	}
	for _, hm := range []struct {
		name, help string
		h          *obs.Histogram
	}{
		{"optimus_interval_duration_seconds", "Wall-clock time of one full scheduling interval.", &r.durInterval},
		{"optimus_refit_duration_seconds", "Wall-clock time of one job's loss-curve refit.", &r.durRefit},
		{"optimus_allocate_duration_seconds", "Wall-clock time of the marginal-gain allocation kernel.", &r.durAlloc},
		{"optimus_place_duration_seconds", "Wall-clock time of the placement pass, including retries.", &r.durPlace},
	} {
		if hm.h.Count() > 0 {
			e.Histogram(hm.name, hm.help, hm.h)
		}
	}
}
