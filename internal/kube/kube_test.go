package kube

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"optimus/internal/cluster"
)

func res(cpu, mem float64) cluster.Resources {
	return cluster.Resources{cluster.CPU: cpu, cluster.Memory: mem}
}

func newTestCluster(t *testing.T, nodes int) *APIServer {
	t.Helper()
	api := NewAPIServer()
	for i := 0; i < nodes; i++ {
		if err := api.RegisterNode(Node{
			Name: fmt.Sprintf("n%d", i), Capacity: res(16, 64),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return api
}

func TestPodLifecycle(t *testing.T) {
	api := newTestCluster(t, 1)
	pod := Pod{Name: "w0", JobID: 1, Role: RoleWorker, Resources: res(4, 8)}
	if err := api.CreatePod(pod); err != nil {
		t.Fatal(err)
	}
	if err := api.CreatePod(pod); err == nil {
		t.Error("duplicate pod accepted")
	}
	if err := api.CreatePod(Pod{}); err == nil {
		t.Error("nameless pod accepted")
	}
	got, ok := api.GetPod("w0")
	if !ok || got.Phase != PodPending || got.NodeName != "" {
		t.Errorf("GetPod = %+v, %v", got, ok)
	}
	if err := api.Bind("w0", "n0"); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("w0", "n0"); err == nil {
		t.Error("double bind accepted")
	}
	if err := api.SetPhase("w0", PodRunning); err != nil {
		t.Fatal(err)
	}
	if err := api.DeletePod("w0"); err != nil {
		t.Fatal(err)
	}
	if err := api.DeletePod("w0"); err == nil {
		t.Error("double delete accepted")
	}
	if _, ok := api.GetPod("w0"); ok {
		t.Error("pod survives delete")
	}
}

func TestBindAdmissionControl(t *testing.T) {
	api := newTestCluster(t, 1)
	if err := api.CreatePod(Pod{Name: "big", Resources: res(12, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("big", "n0"); err != nil {
		t.Fatal(err)
	}
	if err := api.CreatePod(Pod{Name: "big2", Resources: res(12, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("big2", "n0"); err == nil {
		t.Error("overcommit bind accepted")
	}
	if err := api.Bind("big2", "missing"); err == nil {
		t.Error("bind to unknown node accepted")
	}
	if err := api.Bind("missing", "n0"); err == nil {
		t.Error("bind of unknown pod accepted")
	}
	// Finished pods release capacity.
	if err := api.SetPhase("big", PodSucceeded); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("big2", "n0"); err != nil {
		t.Errorf("bind after completion failed: %v", err)
	}
}

func TestFreeCapacity(t *testing.T) {
	api := newTestCluster(t, 2)
	if err := api.CreatePod(Pod{Name: "a", Resources: res(4, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("a", "n0"); err != nil {
		t.Fatal(err)
	}
	free := api.FreeCapacity()
	if free["n0"][cluster.CPU] != 12 || free["n1"][cluster.CPU] != 16 {
		t.Errorf("FreeCapacity = %v", free)
	}
}

func TestWatchDeliversEvents(t *testing.T) {
	api := newTestCluster(t, 1)
	events, cancel := api.Watch()
	defer cancel()
	if err := api.CreatePod(Pod{Name: "w", Resources: res(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("w", "n0"); err != nil {
		t.Fatal(err)
	}
	if err := api.DeletePod("w"); err != nil {
		t.Fatal(err)
	}
	want := []EventType{EventAdded, EventModified, EventDeleted}
	for _, w := range want {
		select {
		case ev := <-events:
			if ev.Type != w {
				t.Errorf("event %v, want %v", ev.Type, w)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for %v", w)
		}
	}
	cancel()
	cancel() // idempotent
}

func TestSnapshotRestore(t *testing.T) {
	api := newTestCluster(t, 2)
	if err := api.CreatePod(Pod{Name: "p", JobID: 7, Role: RolePS, Resources: res(2, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("p", "n1"); err != nil {
		t.Fatal(err)
	}
	snap, err := api.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restored.GetPod("p")
	if !ok || got.NodeName != "n1" || got.JobID != 7 {
		t.Errorf("restored pod = %+v, %v", got, ok)
	}
	if len(restored.ListNodes()) != 2 {
		t.Errorf("restored %d nodes", len(restored.ListNodes()))
	}
	if _, err := Restore([]byte("garbage")); err == nil {
		t.Error("Restore accepted garbage")
	}
}

func TestOptimusSchedulerBindsJobGroups(t *testing.T) {
	api := newTestCluster(t, 3)
	// Job 1: 2 PS + 4 workers, each node fits 2 of each.
	for i := 0; i < 2; i++ {
		if err := api.CreatePod(Pod{
			Name: fmt.Sprintf("j1-ps-%d", i), JobID: 1, Role: RolePS,
			Resources: res(3, 8),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := api.CreatePod(Pod{
			Name: fmt.Sprintf("j1-w-%d", i), JobID: 1, Role: RoleWorker,
			Resources: res(5, 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewOptimusScheduler(api)
	bound, err := s.ScheduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	if bound != 6 {
		t.Fatalf("bound %d pods, want 6", bound)
	}
	// All on as few nodes as possible (Theorem 1): 2ps+4w = 26 CPU → 2 nodes.
	nodes := map[string]bool{}
	for _, p := range api.ListPods() {
		if p.NodeName == "" {
			t.Errorf("pod %s unbound", p.Name)
		}
		nodes[p.NodeName] = true
	}
	if len(nodes) > 2 {
		t.Errorf("job spread over %d nodes, want ≤ 2", len(nodes))
	}
	// Idempotent second cycle.
	if n, err := s.ScheduleOnce(); err != nil || n != 0 {
		t.Errorf("second cycle bound %d (%v), want 0", n, err)
	}
}

func TestSchedulerWaitsForCompleteGroups(t *testing.T) {
	api := newTestCluster(t, 2)
	// Only workers so far — no PS yet: nothing should bind.
	if err := api.CreatePod(Pod{Name: "w", JobID: 1, Role: RoleWorker, Resources: res(5, 10)}); err != nil {
		t.Fatal(err)
	}
	s := NewOptimusScheduler(api)
	if n, err := s.ScheduleOnce(); err != nil || n != 0 {
		t.Errorf("bound %d (%v), want 0 for incomplete group", n, err)
	}
}

func TestKubeletRunsAndStopsPods(t *testing.T) {
	api := newTestCluster(t, 1)
	var mu sync.Mutex
	started := 0
	stopped := make(chan struct{}, 1)
	runner := func(p Pod) func() {
		mu.Lock()
		started++
		mu.Unlock()
		return func() {
			select {
			case stopped <- struct{}{}:
			default:
			}
		}
	}
	k := StartKubelet(api, "n0", runner)
	defer k.Stop()

	if err := api.CreatePod(Pod{Name: "t", JobID: 1, Role: RoleWorker, Resources: res(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("t", "n0"); err != nil {
		t.Fatal(err)
	}
	if got := WaitRunning(api, 1, 2*time.Second); got != 1 {
		t.Fatalf("running pods = %d, want 1", got)
	}
	mu.Lock()
	if started != 1 {
		t.Errorf("started = %d, want 1", started)
	}
	mu.Unlock()

	if err := api.DeletePod("t"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("pod stop callback never fired")
	}
}

func TestKubeletIgnoresOtherNodes(t *testing.T) {
	api := newTestCluster(t, 2)
	var mu sync.Mutex
	started := 0
	k := StartKubelet(api, "n0", func(p Pod) func() {
		mu.Lock()
		started++
		mu.Unlock()
		return nil
	})
	defer k.Stop()
	if err := api.CreatePod(Pod{Name: "x", Resources: res(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("x", "n1"); err != nil {
		t.Fatal(err)
	}
	// A negative check: no event marks "the kubelet for n0 ignored the pod".
	// sleep: give the kubelet for n0 time to (wrongly) start it.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if started != 0 {
		t.Errorf("kubelet for n0 started %d pods bound to n1", started)
	}
}

// End-to-end recovery: scheduler state survives a snapshot/restore cycle and
// a fresh scheduler continues binding (the §5.5 fault-tolerance story).
func TestSchedulerRecovery(t *testing.T) {
	api := newTestCluster(t, 2)
	mk := func(name string, role Role) {
		if err := api.CreatePod(Pod{Name: name, JobID: 1, Role: role, Resources: res(4, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	mk("ps0", RolePS)
	mk("w0", RoleWorker)
	snap, err := api.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": throw away everything, restore from etcd, reschedule.
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	s := NewOptimusScheduler(restored)
	bound, err := s.ScheduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	if bound != 2 {
		t.Errorf("recovered scheduler bound %d pods, want 2", bound)
	}
}

func TestDrainNodeReschedulesPods(t *testing.T) {
	api := newTestCluster(t, 2)
	for i := 0; i < 2; i++ {
		if err := api.CreatePod(Pod{
			Name: fmt.Sprintf("d%d", i), JobID: 1,
			Role: RoleWorker, Resources: res(5, 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.CreatePod(Pod{Name: "dps", JobID: 1, Role: RolePS, Resources: res(3, 8)}); err != nil {
		t.Fatal(err)
	}
	s := NewOptimusScheduler(api)
	if _, err := s.ScheduleOnce(); err != nil {
		t.Fatal(err)
	}
	// Find the node hosting pods and drain it.
	var victim string
	for _, p := range api.ListPods() {
		if p.NodeName != "" {
			victim = p.NodeName
			break
		}
	}
	if victim == "" {
		t.Fatal("nothing was scheduled")
	}
	if err := api.DrainNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := api.DrainNode(victim); err == nil {
		t.Error("double drain accepted")
	}
	if len(api.ListNodes()) != 1 {
		t.Errorf("nodes after drain = %d, want 1", len(api.ListNodes()))
	}
	// The drained pods are pending again; rescheduling places them on the
	// survivor (capacity permitting).
	bound, err := s.ScheduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	if bound == 0 {
		t.Error("nothing rescheduled after drain")
	}
	for _, p := range api.ListPods() {
		if p.NodeName == victim {
			t.Errorf("pod %s still on drained node", p.Name)
		}
	}
}
