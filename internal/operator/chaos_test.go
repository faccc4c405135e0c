package operator

import (
	"slices"
	"testing"
	"time"

	"optimus/internal/chaos"
	"optimus/internal/psys"
)

// cycleUntil drives scheduling cycles until pred holds or the deadline hits.
func cycleUntil(t *testing.T, op *Operator, d time.Duration, pred func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		// The live PS drivers train in wall-clock time.
		// sleep: let them produce fresh telemetry for the next cycle.
		time.Sleep(40 * time.Millisecond)
		if _, err := op.Cycle(); err != nil {
			t.Fatal(err)
		}
		if pred() {
			return true
		}
	}
	return pred()
}

func TestInjectFaultValidation(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	if err := op.InjectFault(chaos.Fault{Kind: chaos.NodeCrash, Time: 1}); err == nil {
		t.Error("invalid fault accepted")
	}
	// Faults against unknown jobs are recorded no-ops, like the simulator's
	// late deliveries.
	if err := op.InjectFault(chaos.Fault{Kind: chaos.TaskKill, Time: 1, Job: 99}); err != nil {
		t.Fatal(err)
	}
	if fs := op.FaultStats(); fs.Injected != 1 || fs.Restarts != 0 {
		t.Errorf("stats = %+v", fs)
	}
}

// A task kill mid-training restarts the incarnation from a checkpoint: the
// job keeps its progress and still converges.
func TestTaskKillRecovers(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // sleep: let the live drivers train some steps before the kill
	if err := op.InjectFault(chaos.Fault{Kind: chaos.TaskKill, Time: 0, Job: 1}); err != nil {
		t.Fatal(err)
	}
	if fs := op.FaultStats(); fs.Restarts == 0 {
		t.Fatalf("no restarts recorded: %+v", fs)
	}
	if !cycleUntil(t, op, 20*time.Second, func() bool { return op.Status()[0].Completed }) {
		t.Fatalf("job did not converge after task kill: %+v", op.Status())
	}
}

// A node crash drains the node, recovers the jobs placed there, and the
// scheduler re-places the pods on surviving nodes.
func TestNodeCrashDrainsAndRecovers(t *testing.T) {
	api := newAPI(t, 3)
	op := New(api, t.TempDir())
	defer op.Shutdown()
	for id := 1; id <= 2; id++ {
		if err := op.Submit(request(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Cycle until the scheduler binds a pod group somewhere.
	boundNode := func() string {
		for _, p := range api.ListPods() {
			if p.NodeName != "" {
				return p.NodeName
			}
		}
		return ""
	}
	if !cycleUntil(t, op, 20*time.Second, func() bool { return boundNode() != "" }) {
		t.Fatal("no pod ever bound")
	}
	crashed := boundNode()
	if err := op.InjectFault(chaos.Fault{
		Kind: chaos.NodeCrash, Time: 0, Node: crashed, Duration: 60,
	}); err != nil {
		t.Fatal(err)
	}
	if fs := op.FaultStats(); fs.Injected != 1 || fs.Restarts == 0 {
		t.Fatalf("stats after crash = %+v", fs)
	}
	if len(api.ListNodes()) != 2 {
		t.Errorf("node not drained: %d nodes", len(api.ListNodes()))
	}
	allDone := func() bool {
		for _, st := range op.Status() {
			if !st.Completed {
				return false
			}
		}
		return true
	}
	if !cycleUntil(t, op, 30*time.Second, allDone) {
		t.Fatalf("jobs did not converge after node crash: %+v", op.Status())
	}
	for _, p := range api.ListPods() {
		if p.NodeName == crashed {
			t.Errorf("pod %s still on crashed node", p.Name)
		}
	}
}

// An armed checkpoint failure makes the next kill a cold restart (progress
// wasted), and a resize that hits it skips the interval instead of erroring.
func TestCheckpointFailureWastesWork(t *testing.T) {
	op := New(newAPI(t, 2), t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	// sleep: let the live drivers train some steps, so the kill has work to waste.
	time.Sleep(120 * time.Millisecond)
	if err := op.InjectFault(chaos.Fault{Kind: chaos.CheckpointFail, Time: 0, Job: 1}); err != nil {
		t.Fatal(err)
	}
	if err := op.InjectFault(chaos.Fault{Kind: chaos.TaskKill, Time: 0, Job: 1}); err != nil {
		t.Fatal(err)
	}
	fs := op.FaultStats()
	if fs.CheckpointFailures != 1 {
		t.Errorf("checkpoint failures = %d, want 1", fs.CheckpointFailures)
	}
	if fs.WastedSteps == 0 {
		t.Error("cold restart recorded no wasted steps")
	}
	if !cycleUntil(t, op, 20*time.Second, func() bool { return op.Status()[0].Completed }) {
		t.Fatalf("job did not converge after cold restart: %+v", op.Status())
	}
}

// The psys-level one-shot flag feeds the operator's resize path: Cycle must
// tolerate the failed write and retry later.
func TestResizeToleratesCheckpointFailure(t *testing.T) {
	op := New(newAPI(t, 3), t.TempDir())
	defer op.Shutdown()
	if err := op.Submit(request(1)); err != nil {
		t.Fatal(err)
	}
	mj := op.lookup(1)
	mj.mu.Lock()
	job := mj.job
	mj.mu.Unlock()
	job.FailNextCheckpoint()
	// Cycle until a resize is attempted; the armed failure must not error it.
	sawFailure := func() bool { return op.FaultStats().CheckpointFailures > 0 }
	converged := func() bool { return op.Status()[0].Completed }
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) && !sawFailure() && !converged(); {
		time.Sleep(40 * time.Millisecond) // sleep: let the live driver produce fresh telemetry
		rep, err := op.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		// The cycle whose resize hit the failure resized nothing.
		if sawFailure() && slices.Contains(rep.Resized, 1) {
			t.Errorf("job 1 reported resized in the cycle its checkpoint failed: %+v", rep)
		}
	}
	if !sawFailure() && !converged() {
		t.Fatalf("neither checkpoint failure nor convergence: %+v", op.FaultStats())
	}
	if err := job.SaveCheckpoint(StateFileName(t.TempDir())); err != nil && sawFailure() {
		// One-shot: a later save on the same incarnation must succeed. The
		// incarnation may have been replaced by a successful resize, in which
		// case the old job is stopped and the save legitimately errors.
		if err != psys.ErrCheckpointFailed {
			t.Logf("save on old incarnation: %v (ok after resize)", err)
		} else {
			t.Error("checkpoint failure not one-shot")
		}
	}
}

// Satellite #4: straggler replacement when the replacement worker itself
// fails mid-recovery. The operator replaces the submitted straggler; we then
// degrade the fresh replacement via chaos injection and the §5.2 loop must
// detect and replace it again.
func TestStragglerReplacementSurvivesSecondFailure(t *testing.T) {
	api := newAPI(t, 2)
	op := New(api, t.TempDir())
	defer op.Shutdown()
	req := request(11)
	// Converge slowly enough that both replacement rounds happen mid-run.
	req.Threshold = 0.0005
	req.WorkerDelays = map[int]time.Duration{0: 3 * time.Millisecond}
	if err := op.Submit(req); err != nil {
		t.Fatal(err)
	}

	status := func() JobStatus { return op.Status()[0] }
	if !cycleUntil(t, op, 20*time.Second, func() bool {
		st := status()
		return st.Replaced >= 1 || st.Completed
	}) {
		t.Fatalf("first straggler never replaced: %+v", status())
	}
	if status().Completed {
		t.Skip("job converged before the first replacement could be observed")
	}
	first := status().Replaced

	// The replacement worker (same ID 0, fresh and healthy) fails in turn:
	// inject the same degradation against it mid-recovery.
	if err := op.InjectFault(chaos.Fault{
		Kind: chaos.Straggler, Time: 0, Job: 11, Task: 0,
		Duration: 60, Severity: 0.3,
	}); err != nil {
		t.Fatal(err)
	}
	if !cycleUntil(t, op, 20*time.Second, func() bool {
		st := status()
		return st.Replaced > first || st.Completed
	}) {
		t.Fatalf("degraded replacement never replaced: %+v", status())
	}
	if st := status(); !st.Completed && st.Replaced <= first {
		t.Fatalf("replacement count stuck at %d", st.Replaced)
	}
}
