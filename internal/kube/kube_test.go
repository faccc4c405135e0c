package kube

import (
	"fmt"
	"testing"

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
	if !ok || got.NodeName != "" {
		t.Errorf("GetPod = %+v, %v", got, ok)
	}
	if err := api.Bind("w0", "n0"); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("w0", "n0"); err == nil {
		t.Error("double bind accepted")
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
	// A deleted pod releases capacity.
	if err := api.DeletePod("big"); err != nil {
		t.Fatal(err)
	}
	if err := api.Bind("big2", "n0"); err != nil {
		t.Errorf("bind after delete failed: %v", err)
	}
}

func TestDrainNode(t *testing.T) {
	api := newTestCluster(t, 3)
	for i, node := range []string{"n0", "n0", "n1"} {
		name := fmt.Sprintf("p%d", i)
		if err := api.CreatePod(Pod{Name: name, JobID: 1, Role: RoleWorker, Resources: res(5, 10)}); err != nil {
			t.Fatal(err)
		}
		if err := api.Bind(name, node); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.DrainNode("missing"); err == nil {
		t.Error("drain of unknown node accepted")
	}
	if err := api.DrainNode("n0"); err != nil {
		t.Fatal(err)
	}
	if err := api.DrainNode("n0"); err == nil {
		t.Error("double drain accepted")
	}
	if got := len(api.ListNodes()); got != 2 {
		t.Errorf("nodes after drain = %d, want 2", got)
	}
	want := map[string]string{"p0": "", "p1": "", "p2": "n1"}
	for _, p := range api.ListPods() {
		if p.NodeName != want[p.Name] {
			t.Errorf("pod %s on %q after drain, want %q", p.Name, p.NodeName, want[p.Name])
		}
	}
	if err := api.Bind("p0", "n0"); err == nil {
		t.Error("bind to the drained node accepted")
	}
	for name, node := range map[string]string{"p0": "n1", "p1": "n2"} {
		if err := api.Bind(name, node); err != nil {
			t.Errorf("freed pod %s cannot bind on survivor %s: %v", name, node, err)
		}
	}
}
