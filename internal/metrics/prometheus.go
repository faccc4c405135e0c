package metrics

import (
	"fmt"
	"io"
	"strconv"

	"optimus/internal/obs"
)

// Prometheus text-format export (version 0.0.4). The daemon's /metrics
// endpoint, the operator's -metrics-addr server and any future scraper share
// these helpers so every component emits the same metric families in the
// same shape.

// Exporter wraps an io.Writer and remembers which metric families have had
// their # HELP/# TYPE preamble emitted. The text format allows each family
// header at most once per exposition, so endpoints that compose several
// Write* calls (or call WritePrometheus alongside their own gauges) route
// them all through one Exporter and stay valid however often each family
// recurs. The plain io.Writer path is unchanged: every call emits its own
// preamble, exactly as before.
type Exporter struct {
	w    io.Writer
	seen map[string]struct{}
}

// NewExporter wraps w for deduplicated export. Passing an *Exporter returns
// it unchanged, so helpers can normalize their writer unconditionally.
func NewExporter(w io.Writer) *Exporter {
	if e, ok := w.(*Exporter); ok {
		return e
	}
	return &Exporter{w: w, seen: make(map[string]struct{})}
}

// Write passes through to the underlying writer, making Exporter usable
// anywhere an io.Writer is expected.
func (e *Exporter) Write(p []byte) (int, error) { return e.w.Write(p) }

// preamble emits the HELP/TYPE header for name once per Exporter lifetime.
func (e *Exporter) preamble(name, help, typ string) error {
	if _, ok := e.seen[name]; ok {
		return nil
	}
	e.seen[name] = struct{}{}
	_, err := fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// writePreamble emits the family header, deduplicating when w is an
// Exporter.
func writePreamble(w io.Writer, name, help, typ string) error {
	if e, ok := w.(*Exporter); ok {
		return e.preamble(name, help, typ)
	}
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// writeMetric emits one metric with its HELP/TYPE preamble.
func writeMetric(w io.Writer, name, help, typ string, v float64) error {
	if err := writePreamble(w, name, help, typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
	return err
}

// WriteCounter writes one counter metric in Prometheus text format.
func WriteCounter(w io.Writer, name, help string, v float64) error {
	return writeMetric(w, name, help, "counter", v)
}

// WriteGauge writes one gauge metric in Prometheus text format.
func WriteGauge(w io.Writer, name, help string, v float64) error {
	return writeMetric(w, name, help, "gauge", v)
}

// WriteLabeledGauge writes one gauge sample with a single label pair. The
// family preamble is deduplicated through Exporter, so callers can emit one
// sample per label value (e.g. per component) in a loop.
func WriteLabeledGauge(w io.Writer, name, help, label, value string, v float64) error {
	if err := writePreamble(w, name, help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", name, label, value,
		strconv.FormatFloat(v, 'g', -1, 64))
	return err
}

// WriteInfoGauge writes one constant "info"-style gauge sample (value 1)
// carrying an arbitrary set of label pairs, e.g. optimus_build_info. Labels
// are emitted in the order given.
func WriteInfoGauge(w io.Writer, name, help string, labels [][2]string) error {
	if err := writePreamble(w, name, help, "gauge"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name+"{"); err != nil {
		return err
	}
	for i, kv := range labels {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%s=%q", sep, kv[0], kv[1]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "} 1\n")
	return err
}

// WriteHistogram writes one obs.Histogram as a Prometheus histogram family:
// cumulative _bucket{le="..."} samples for every log bucket, then _sum and
// _count.
func WriteHistogram(w io.Writer, name, help string, h *obs.Histogram) error {
	if err := writePreamble(w, name, help, "histogram"); err != nil {
		return err
	}
	for i := 0; i <= obs.HistBuckets; i++ {
		le := "+Inf"
		if i < obs.HistBuckets {
			le = strconv.FormatFloat(obs.BucketBound(i), 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, h.CumulativeCount(i)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name,
		strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// WritePrometheus exports the recorder's counters, the latest interval
// snapshot, and any non-empty latency histograms in Prometheus text format.
// The recorder is not synchronized; callers that mutate it concurrently (the
// optimusd event loop) must hold their own lock around both the mutations
// and this export.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	type metric struct {
		name, help, typ string
		v               float64
	}
	ms := []metric{
		{"optimus_jobs_arrived_total", "Jobs submitted to the scheduler.", "counter", float64(len(r.arrivals))},
		{"optimus_jobs_completed_total", "Jobs that reached convergence.", "counter", float64(len(r.completions))},
		{"optimus_intervals_total", "Scheduling intervals recorded.", "counter", float64(len(r.timeline))},
		{"optimus_scaling_time_seconds_total", "Job-seconds spent in checkpoint/restart rescaling pauses.", "counter", r.scalingTime},
		{"optimus_faults_injected_total", "Faults injected into the run.", "counter", float64(r.faults)},
		{"optimus_tasks_restarted_total", "Tasks restarted by fault recovery.", "counter", float64(r.restarts)},
		{"optimus_wasted_work_seconds_total", "Job-seconds of progress lost to failures and recomputed.", "counter", r.wastedWork},
		{"optimus_recovery_time_seconds_total", "Job-seconds paused in checkpoint-restore recovery.", "counter", r.recoveryTime},
	}
	// The session migration families appear only once a scheduling session
	// has reported, so stateless policies' expositions omit them.
	if r.incrSet {
		ms = append(ms,
			metric{"optimus_incr_tasks_migrated_total", "Previously-running tasks whose node assignment changed.", "counter", float64(r.incr.TasksMigrated)},
			metric{"optimus_incr_last_tasks_migrated", "Tasks migrated in the last scheduling interval.", "gauge", float64(r.incr.LastMigrated)},
		)
	}
	if n := len(r.timeline); n > 0 {
		last := r.timeline[n-1]
		ms = append(ms,
			metric{"optimus_running_jobs", "Jobs with tasks deployed in the last interval.", "gauge", float64(last.RunningJobs)},
			metric{"optimus_waiting_jobs", "Admitted jobs without a deployment in the last interval.", "gauge", float64(last.WaitingJobs)},
			metric{"optimus_running_tasks", "PS + worker tasks deployed in the last interval.", "gauge", float64(last.RunningTasks)},
			metric{"optimus_worker_utilization", "Mean normalized worker CPU utilization in the last interval.", "gauge", last.WorkerUtil},
			metric{"optimus_ps_utilization", "Mean normalized PS CPU utilization in the last interval.", "gauge", last.PSUtil},
			metric{"optimus_cluster_share", "Fraction of total cluster CPU allocated in the last interval.", "gauge", last.ClusterShare},
		)
	}
	for _, m := range ms {
		if err := writeMetric(w, m.name, m.help, m.typ, m.v); err != nil {
			return err
		}
	}
	hists := []struct {
		name, help string
		h          *obs.Histogram
	}{
		{"optimus_interval_duration_seconds", "Wall-clock time of one full scheduling interval.", &r.durInterval},
		{"optimus_refit_duration_seconds", "Wall-clock time of one job's loss-curve refit.", r.RefitDuration()},
		{"optimus_allocate_duration_seconds", "Wall-clock time of the marginal-gain allocation kernel.", &r.durAlloc},
		{"optimus_place_duration_seconds", "Wall-clock time of the placement pass, including retries.", &r.durPlace},
		{"optimus_api_request_duration_seconds", "Wall-clock latency of optimusd API requests.", &r.durAPI},
	}
	for _, hm := range hists {
		if hm.h.Count() == 0 {
			continue
		}
		if err := WriteHistogram(w, hm.name, hm.help, hm.h); err != nil {
			return err
		}
	}
	return nil
}
