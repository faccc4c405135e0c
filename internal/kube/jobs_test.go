package kube

import (
	"slices"
	"testing"

	"optimus/internal/core"
)

func submitTestJob(t *testing.T, jc *JobController, id, ps, w int) {
	t.Helper()
	err := jc.Submit(TrainingJob{
		ID: id, PS: ps, Workers: w,
		PSRes:     res(3, 8),
		WorkerRes: res(5, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJobControllerSubmit(t *testing.T) {
	api := newTestCluster(t, 2)
	jc := NewJobController(api)
	submitTestJob(t, jc, 1, 2, 3)
	pods := jc.Pods(1)
	if len(pods) != 5 {
		t.Fatalf("created %d pods, want 5", len(pods))
	}
	ps, w := 0, 0
	for _, p := range pods {
		if p.NodeName != "" {
			t.Errorf("pod %s bound to %q, want pending", p.Name, p.NodeName)
		}
		if p.Role == RolePS {
			ps++
		} else {
			w++
		}
	}
	if ps != 2 || w != 3 {
		t.Errorf("roles = %dps/%dw, want 2/3", ps, w)
	}
	if err := jc.Submit(TrainingJob{ID: 1, PS: 1, Workers: 1}); err == nil {
		t.Error("duplicate submission accepted")
	}
	if err := jc.Submit(TrainingJob{ID: 2, PS: 0, Workers: 1}); err == nil {
		t.Error("zero-PS job accepted")
	}
	if len(jc.Jobs()) != 1 {
		t.Errorf("Jobs() = %d, want 1", len(jc.Jobs()))
	}
}

func TestJobControllerDelete(t *testing.T) {
	api := newTestCluster(t, 2)
	jc := NewJobController(api)
	submitTestJob(t, jc, 1, 1, 1)
	if err := jc.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := len(jc.Pods(1)); got != 0 {
		t.Errorf("pods after delete = %d", got)
	}
	if err := jc.Delete(1); err == nil {
		t.Error("double delete accepted")
	}
}

// The operator's apply path: Apply binds a group where its placement puts
// it, leaves a group already there alone, moves or reshapes one that is not,
// and leaves the group of a job without a placement pending.
func TestJobControllerApply(t *testing.T) {
	api := newTestCluster(t, 2)
	jc := NewJobController(api)
	submitTestJob(t, jc, 3, 1, 2)
	submitTestJob(t, jc, 4, 1, 1)
	on := func(nodes []string, ps, workers []int) map[int]core.Placement {
		return map[int]core.Placement{3: {NodeIDs: nodes, PSOnNode: ps, WorkersOnNode: workers}}
	}
	where := func() (out []string) {
		for _, p := range jc.Pods(3) {
			out = append(out, p.Name+"@"+p.NodeName)
		}
		return out
	}
	for _, step := range []struct {
		name  string
		place map[int]core.Placement
		bound int
		want  []string
	}{
		{"bind", on([]string{"n0", "n1"}, []int{1, 0}, []int{1, 1}), 3,
			[]string{"job3-ps-0@n0", "job3-worker-0@n0", "job3-worker-1@n1"}},
		{"keep", on([]string{"n0", "n1"}, []int{1, 0}, []int{1, 1}), 0,
			[]string{"job3-ps-0@n0", "job3-worker-0@n0", "job3-worker-1@n1"}},
		{"move", on([]string{"n1"}, []int{1}, []int{2}), 3,
			[]string{"job3-ps-0@n1", "job3-worker-0@n1", "job3-worker-1@n1"}},
		{"reshape", on([]string{"n0"}, []int{1}, []int{1}), 2,
			[]string{"job3-ps-0@n0", "job3-worker-0@n0"}},
		{"release", nil, 0, []string{"job3-ps-0@", "job3-worker-0@"}},
	} {
		n, err := jc.Apply(step.place)
		if err != nil || n != step.bound {
			t.Fatalf("%s: Apply = %d, %v; want %d bound", step.name, n, err, step.bound)
		}
		if got := where(); !slices.Equal(got, step.want) {
			t.Fatalf("%s: pods %v, want %v", step.name, got, step.want)
		}
		for _, p := range jc.Pods(4) {
			if p.NodeName != "" {
				t.Fatalf("%s: job 4 has no placement, yet %s is bound", step.name, p.Name)
			}
		}
	}
}
