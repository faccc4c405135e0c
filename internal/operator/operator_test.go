package operator

import (
	"encoding/gob"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/kube"
	"optimus/internal/speedfit"
)

func res(cpu, mem float64) cluster.Resources {
	return cluster.Resources{cluster.CPU: cpu, cluster.Memory: mem}
}

func newAPI(t *testing.T, nodes int) *kube.APIServer {
	t.Helper()
	api := kube.NewAPIServer()
	for i := 0; i < nodes; i++ {
		if err := api.RegisterNode(kube.Node{
			Name: fmt.Sprintf("n%d", i), Capacity: res(16, 64),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return api
}

func request(id int) JobRequest {
	return JobRequest{
		ID:        id,
		ModelSpec: "linreg:24",
		Examples:  800,
		Noise:     0.01,
		Mode:      speedfit.Sync,
		BatchSize: 32,
		LR:        0.1,
		Seed:      int64(id + 1),
		Threshold: 0.02,
		PSRes:     res(3, 8),
		WorkerRes: res(5, 10),
	}
}

func TestSubmitValidation(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	bad := request(1)
	bad.Threshold = 0
	if err := op.Submit(bad); err == nil {
		t.Error("zero threshold accepted")
	}
	bad = request(1)
	bad.ModelSpec = "nope"
	if err := op.Submit(bad); err == nil {
		t.Error("bad model accepted")
	}
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	if err := op.Submit(request(1)); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestSubmitCreatesPodGroup(t *testing.T) {
	api := newAPI(t, 2)
	op := New(api, t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	pods := api.ListPods()
	if len(pods) != 2 { // starvation floor: 1 PS + 1 worker
		t.Fatalf("pods = %d, want 2", len(pods))
	}
}

// The full closed loop: submit real jobs, run scheduling cycles, and verify
// that the operator (a) grows allocations from the starvation floor using
// live measurements, (b) binds the pod groups, and (c) completes the jobs
// when their real losses converge.
func TestOperatorEndToEnd(t *testing.T) {
	api := newAPI(t, 3)
	op := New(api, t.TempDir())
	defer op.Shutdown()

	for id := 1; id <= 2; id++ {
		if err := op.Submit(request(id)); err != nil {
			t.Fatal(err)
		}
	}

	sawResize := false
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond) // sleep: let the live drivers accumulate telemetry
		rep, err := op.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Resized) > 0 {
			sawResize = true
		}
		if rep.Active == 0 {
			break
		}
	}

	done := 0
	for _, st := range op.Status() {
		if st.Completed {
			done++
		}
		if st.Steps == 0 {
			t.Errorf("job %d made no progress", st.ID)
		}
	}
	if done != 2 {
		t.Fatalf("completed %d/2 jobs before deadline", done)
	}
	if !sawResize {
		t.Error("operator never rescaled a job despite spare capacity")
	}
	// Completed jobs must have no pods left.
	if pods := api.ListPods(); len(pods) != 0 {
		t.Errorf("%d pods left after completion", len(pods))
	}
}

// The round decides shape and nodes together (§4.2): after every cycle, a
// job the round placed trains at exactly the shape its pods are bound at,
// with none pending. Three floor jobs fill 24 of 3 × 10 CPU; a grant that
// fits the aggregate but does not pack is shrunk until it does.
func TestCycleBindsWhatItResizes(t *testing.T) {
	api := kube.NewAPIServer()
	for i := 0; i < 3; i++ {
		if err := api.RegisterNode(kube.Node{Name: fmt.Sprintf("n%d", i), Capacity: res(10, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	op := New(api, t.TempDir())
	defer op.Shutdown()
	for id := 1; id <= 3; id++ {
		if err := op.Submit(request(id)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for cycle := 1; time.Now().Before(deadline); cycle++ {
		time.Sleep(40 * time.Millisecond) // sleep: let the live drivers produce fresh telemetry
		rep, err := op.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		pods := api.ListPods()
		for _, st := range op.Status() {
			if st.Completed {
				continue
			}
			var ps, workers, pending int
			for _, p := range pods {
				switch {
				case p.JobID != st.ID:
				case p.NodeName == "":
					pending++
				case p.Role == kube.RolePS:
					ps++
				default:
					workers++
				}
			}
			// An unplaced job keeps its incarnation with every pod pending.
			placed := ps+workers > 0 || slices.Contains(rep.Resized, st.ID)
			if placed && (pending > 0 || ps != st.PS || workers != st.Workers) {
				t.Fatalf("cycle %d: job %d trains at (%d PS, %d workers); pods bound (%d, %d), %d pending",
					cycle, st.ID, st.PS, st.Workers, ps, workers, pending)
			}
		}
		if rep.Active == 0 {
			break
		}
	}
	for _, st := range op.Status() {
		if !st.Completed {
			t.Errorf("job %d did not complete: %+v", st.ID, st)
		}
	}
}

func TestCycleOnEmptyOperator(t *testing.T) {
	op := New(newAPI(t, 1), t.TempDir())
	rep, err := op.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Active != 0 {
		t.Errorf("Active = %d", rep.Active)
	}
}

func TestOperatorAsyncJob(t *testing.T) {
	api := newAPI(t, 2)
	op := New(api, t.TempDir())
	defer op.Shutdown()
	req := request(5)
	req.Mode = speedfit.Async
	req.ModelSpec = "mlp:6x8"
	if err := op.Submit(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(40 * time.Millisecond) // sleep: let the live driver accumulate telemetry
		rep, err := op.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Active == 0 {
			break
		}
	}
	st := op.Status()
	if len(st) != 1 || !st[0].Completed {
		t.Fatalf("async job did not complete: %+v", st)
	}
}

func TestOperatorStatusShape(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(9)); err != nil {
		t.Fatal(err)
	}
	st := op.Status()
	if len(st) != 1 || st[0].ID != 9 || st[0].Completed {
		t.Errorf("Status = %+v", st)
	}
	if st[0].PS != 1 || st[0].Workers != 1 {
		t.Errorf("initial allocation = (%d,%d), want (1,1)", st[0].PS, st[0].Workers)
	}
}

func TestOperatorReplacesStragglers(t *testing.T) {
	api := newAPI(t, 2)
	op := New(api, t.TempDir())
	defer op.Shutdown()
	req := request(11)
	// The straggler costs 3ms/step while healthy workers take microseconds.
	req.WorkerDelays = map[int]time.Duration{0: 3 * time.Millisecond}
	if err := op.Submit(req); err != nil {
		t.Fatal(err)
	}
	// Grow past one worker so detection has peers to compare against, then
	// let the driver observe a few batches.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond) // sleep: let the live driver observe a few batches
		rep, err := op.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		st := op.Status()[0]
		if st.Replaced > 0 || rep.Active == 0 {
			break
		}
	}
	st := op.Status()[0]
	if st.Replaced == 0 {
		t.Error("operator never replaced the injected straggler")
	}
}

// savedSteps sums the progress counters a SaveState file recorded.
func savedSteps(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var st persistedState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var steps int
	for _, pj := range st.Jobs {
		steps += pj.TotalSteps
	}
	return steps
}

// §5.5 fault tolerance: an operator crash loses nothing — a fresh operator
// recovers the persisted job state (parameters included) and finishes the
// workload.
func TestOperatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	statePath := StateFileName(dir)

	api1 := newAPI(t, 3)
	op1 := New(api1, dir)
	if err := op1.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	if err := op1.Submit(request(2)); err != nil {
		t.Fatal(err)
	}
	// Make some progress, then "crash" after a state save.
	time.Sleep(150 * time.Millisecond) // sleep: let the live drivers train some steps to save
	if _, err := op1.Cycle(); err != nil {
		t.Fatal(err)
	}
	if err := op1.SaveState(statePath); err != nil {
		t.Fatal(err)
	}
	op1.Shutdown()
	// Compare against the progress the save recorded, not op1.Status(): the
	// trainers keep stepping between SaveState and Shutdown, so a later
	// status read runs ahead of what recovery can restore.
	stepsBefore := savedSteps(t, statePath)

	// Restart: fresh control plane, fresh operator, recovered state.
	api2 := newAPI(t, 3)
	op2 := New(api2, dir)
	defer op2.Shutdown()
	if err := op2.RecoverInto(statePath); err != nil {
		t.Fatal(err)
	}
	// Recovery must restore progress counters and re-register pod groups.
	var stepsAfter int
	for _, st := range op2.Status() {
		stepsAfter += st.Steps
	}
	if stepsAfter < stepsBefore {
		t.Errorf("recovered steps %d < saved %d", stepsAfter, stepsBefore)
	}
	if pods := api2.ListPods(); len(pods) == 0 {
		t.Error("no pod groups re-registered after recovery")
	}
	// The recovered operator finishes the workload.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond) // sleep: let the live drivers train between cycles
		rep, err := op2.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Active == 0 {
			break
		}
	}
	done := 0
	for _, st := range op2.Status() {
		if st.Completed {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("recovered operator completed %d/2 jobs", done)
	}
	// Recovery into a non-empty operator is rejected.
	if err := op2.RecoverInto(statePath); err == nil {
		t.Error("recovery into a busy operator accepted")
	}
	// Corrupt state is rejected.
	bad := StateFileName(t.TempDir())
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	op3 := New(newAPI(t, 1), dir)
	defer op3.Shutdown()
	if err := op3.RecoverInto(bad); err == nil {
		t.Error("corrupt state accepted")
	}
}
