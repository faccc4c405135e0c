package operator

import (
	"io"
	"sort"
	"strconv"

	"optimus/internal/metrics"
)

// WritePrometheus exports the operator's live state in Prometheus text
// format 0.0.4: per-system counters from the chaos fault ledger and
// aggregate job gauges from Status(). It takes the same snapshots the
// public accessors do, so it is safe to call while jobs are running.
func (o *Operator) WritePrometheus(w io.Writer) error {
	e := metrics.NewExporter(w)
	fs := o.FaultStats()
	e.Counter("optimus_operator_faults_injected_total",
		"Chaos faults injected into the running system.", float64(fs.Injected))
	e.Counter("optimus_operator_task_restarts_total",
		"Tasks restarted by kill/crash recovery.", float64(fs.Restarts))
	e.Counter("optimus_operator_checkpoint_failures_total",
		"Armed checkpoint-write failures that fired.", float64(fs.CheckpointFailures))
	e.Counter("optimus_operator_wasted_steps_total",
		"Training steps lost to cold restarts.", float64(fs.WastedSteps))

	jobs := o.Status()
	var completed, running, ps, workers, steps, replaced int
	for _, j := range jobs {
		if j.Completed {
			completed++
		} else {
			running++
			ps += j.PS
			workers += j.Workers
		}
		steps += j.Steps
		replaced += j.Replaced
	}
	e.Counter("optimus_operator_training_steps_total",
		"Training steps executed across all jobs.", float64(steps))
	e.Counter("optimus_operator_stragglers_replaced_total",
		"Straggling workers replaced per the paper's section 5.2 policy.", float64(replaced))
	e.Gauge("optimus_operator_jobs_running", "Jobs currently training.", float64(running))
	e.Gauge("optimus_operator_jobs_completed", "Jobs that reached convergence.", float64(completed))
	e.Gauge("optimus_operator_ps_tasks", "Parameter-server tasks deployed.", float64(ps))
	e.Gauge("optimus_operator_worker_tasks", "Worker tasks deployed.", float64(workers))

	// Per-job last loss, labelled by job ID in stable order.
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	for _, j := range jobs {
		e.Labeled("optimus_operator_job_last_loss", "Most recent training loss per job.",
			"job", strconv.Itoa(j.ID), j.LastLoss)
	}
	return e.Err()
}
