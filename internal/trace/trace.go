// Package trace persists workloads and simulation results as CSV, so
// experiments are replayable and results can be inspected with standard
// tooling — the reproduction's stand-in for the paper's collected testbed
// traces ("the simulator uses the following from the traces collected from
// our testbed experiments", §6.1).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"optimus/internal/metrics"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

var jobHeader = []string{"id", "model", "mode", "threshold", "arrival", "downscale"}

// WriteJobs serializes a job trace.
func WriteJobs(w io.Writer, jobs []workload.JobSpec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range jobs {
		if j.Model == nil {
			return fmt.Errorf("trace: job %d has no model", j.ID)
		}
		rec := []string{
			strconv.Itoa(j.ID),
			j.Model.Name,
			j.Mode.String(),
			strconv.FormatFloat(j.Threshold, 'g', -1, 64),
			strconv.FormatFloat(j.Arrival, 'g', -1, 64),
			strconv.FormatFloat(j.Downscale, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write job %d: %w", j.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJobs parses a job trace, resolving model names against the zoo.
func ReadJobs(r io.Reader) ([]workload.JobSpec, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if !equalHeader(records[0], jobHeader) {
		return nil, fmt.Errorf("trace: bad header %v (want %v)", records[0], jobHeader)
	}
	jobs := make([]workload.JobSpec, 0, len(records)-1)
	for i, rec := range records[1:] {
		line := i + 2
		if len(rec) != len(jobHeader) {
			return nil, fmt.Errorf("trace: line %d: %d fields, want %d", line, len(rec), len(jobHeader))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad id %q", line, rec[0])
		}
		model := workload.ZooByName(rec[1])
		if model == nil {
			return nil, fmt.Errorf("trace: line %d: unknown model %q", line, rec[1])
		}
		mode, err := speedfit.ParseMode(rec[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: unknown mode %q", line, rec[2])
		}
		threshold, err := strconv.ParseFloat(rec[3], 64)
		if err != nil || threshold <= 0 {
			return nil, fmt.Errorf("trace: line %d: bad threshold %q", line, rec[3])
		}
		arrival, err := strconv.ParseFloat(rec[4], 64)
		if err != nil || arrival < 0 {
			return nil, fmt.Errorf("trace: line %d: bad arrival %q", line, rec[4])
		}
		downscale, err := strconv.ParseFloat(rec[5], 64)
		if err != nil || downscale < 0 || downscale > 1 {
			return nil, fmt.Errorf("trace: line %d: bad downscale %q", line, rec[5])
		}
		jobs = append(jobs, workload.JobSpec{
			ID: id, Model: model, Mode: mode,
			Threshold: threshold, Arrival: arrival, Downscale: downscale,
		})
	}
	return jobs, nil
}

var timelineHeader = []string{
	"time", "running_tasks", "running_jobs", "waiting_jobs",
	"worker_util", "ps_util", "cluster_share",
}

// WriteTimeline serializes per-interval statistics (the Fig-14 series).
func WriteTimeline(w io.Writer, tl []metrics.IntervalStats) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(timelineHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, s := range tl {
		rec := []string{
			strconv.FormatFloat(s.Time, 'g', -1, 64),
			strconv.Itoa(s.RunningTasks),
			strconv.Itoa(s.RunningJobs),
			strconv.Itoa(s.WaitingJobs),
			strconv.FormatFloat(s.WorkerUtil, 'g', -1, 64),
			strconv.FormatFloat(s.PSUtil, 'g', -1, 64),
			strconv.FormatFloat(s.ClusterShare, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write snapshot: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

var jctHeader = []string{"job_id", "jct_seconds"}

// WriteJCTs serializes per-job completion times.
func WriteJCTs(w io.Writer, jcts map[int]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jctHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	ids := make([]int, 0, len(jcts))
	for id := range jcts {
		ids = append(ids, id)
	}
	sortInts(ids)
	for _, id := range ids {
		rec := []string{strconv.Itoa(id), strconv.FormatFloat(jcts[id], 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write jct: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func equalHeader(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
