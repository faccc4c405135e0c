package metrics

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// metricLine matches one sample line of the Prometheus text format.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9][0-9eE+.\-]*$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRecorder()
	r.Arrive(1, 0)
	r.Arrive(2, 100)
	r.Complete(1, 700)
	r.AddScalingTime(42.5)
	r.AddFault()
	r.AddFault()
	r.AddRestarts(3)
	r.AddWastedWork(12)
	r.AddRecoveryTime(7)
	r.Snapshot(IntervalStats{
		Time: 600, RunningTasks: 9, RunningJobs: 2, WaitingJobs: 1,
		WorkerUtil: 0.75, PSUtil: 0.5, ClusterShare: 0.625,
	})

	var buf bytes.Buffer
	e := NewExporter(&buf)
	r.WritePrometheus(e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	want := map[string]string{
		"optimus_jobs_arrived_total":          "2",
		"optimus_jobs_completed_total":        "1",
		"optimus_intervals_total":             "1",
		"optimus_scaling_time_seconds_total":  "42.5",
		"optimus_faults_injected_total":       "2",
		"optimus_tasks_restarted_total":       "3",
		"optimus_wasted_work_seconds_total":   "12",
		"optimus_recovery_time_seconds_total": "7",
		"optimus_running_jobs":                "2",
		"optimus_waiting_jobs":                "1",
		"optimus_running_tasks":               "9",
		"optimus_worker_utilization":          "0.75",
		"optimus_ps_utilization":              "0.5",
		"optimus_cluster_share":               "0.625",
	}
	got := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		got[name] = val
		// Every sample must be preceded by HELP and TYPE comments.
		if !strings.Contains(out, "# HELP "+name+" ") {
			t.Errorf("missing HELP for %s", name)
		}
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("missing TYPE for %s", name)
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %q, want %q", name, got[name], v)
		}
	}
}

func TestWritePrometheusEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	e := NewExporter(&buf)
	NewRecorder().WritePrometheus(e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "optimus_jobs_arrived_total 0\n") {
		t.Errorf("missing zero arrivals counter in:\n%s", out)
	}
	// No timeline yet → no interval gauges.
	if strings.Contains(out, "optimus_running_jobs") {
		t.Errorf("unexpected interval gauges on empty recorder:\n%s", out)
	}
}

func TestWriteCounterGauge(t *testing.T) {
	var buf bytes.Buffer
	e := NewExporter(&buf)
	e.Counter("x_total", "Help text.", 3)
	e.Gauge("y", "More help.", 0.5)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total Help text.\n# TYPE x_total counter\nx_total 3\n" +
		"# HELP y More help.\n# TYPE y gauge\ny 0.5\n"
	if buf.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}
