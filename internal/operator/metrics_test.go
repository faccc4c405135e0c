package operator

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := op.Cycle(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := op.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"optimus_operator_faults_injected_total 0",
		"optimus_operator_jobs_running 1",
		"optimus_operator_jobs_completed 0",
		"# TYPE optimus_operator_training_steps_total counter",
		"# TYPE optimus_operator_ps_tasks gauge",
		`optimus_operator_job_last_loss{job="1"}`,
		"# TYPE optimus_operator_allocate_duration_seconds histogram",
		"optimus_operator_allocate_duration_seconds_count 1",
		"optimus_operator_place_duration_seconds_count 1",
		"# TYPE optimus_operator_refit_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
	// Tasks are deployed after a cycle.
	if !strings.Contains(out, "optimus_operator_worker_tasks") {
		t.Fatalf("no worker task gauge:\n%s", out)
	}
}

func TestWritePrometheusEmptyOperator(t *testing.T) {
	op := New(newAPI(t, 1), t.TempDir())
	defer op.Shutdown()
	var sb strings.Builder
	if err := op.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "optimus_operator_job_last_loss") {
		t.Fatalf("per-job series with no jobs:\n%s", out)
	}
	if !strings.Contains(out, "optimus_operator_jobs_running 0") {
		t.Fatalf("missing zero gauge:\n%s", out)
	}
}
