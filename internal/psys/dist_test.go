package psys

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"optimus/internal/speedfit"
)

func TestModelFromSpec(t *testing.T) {
	cases := map[string]int{
		"linreg:20": 20,
		"logreg:5":  5,
		"mlp:4x8":   4*8 + 8 + 8 + 1,
	}
	for spec, dim := range cases {
		m, err := ModelFromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if m.Dim() != dim {
			t.Errorf("%s: Dim = %d, want %d", spec, m.Dim(), dim)
		}
	}
	for _, bad := range []string{"", "linreg:0", "resnet", "mlp:4", "mlp:0x3"} {
		if _, err := ModelFromSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestDistSpecValidation(t *testing.T) {
	good := DistSpec{
		ModelSpec: "linreg:8", Mode: speedfit.Sync,
		Workers: 2, Servers: 2, BatchSize: 16, LR: 0.1, Examples: 100,
	}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Workers = 0
	if err := bad.validate(); err == nil {
		t.Error("zero workers accepted")
	}
	bad = good
	bad.ModelSpec = "nope"
	if err := bad.validate(); err == nil {
		t.Error("bad model spec accepted")
	}
}

// Full multi-"process" run over real TCP: coordinator, 2 servers, 3 workers,
// all talking through sockets exactly as separate OS processes would.
func TestDistributedTrainingEndToEnd(t *testing.T) {
	coord, err := StartCoordinator(DistSpec{
		ModelSpec: "linreg:16", Mode: speedfit.Sync,
		Workers: 3, Servers: 2, BatchSize: 16, LR: 0.1,
		Seed: 5, Examples: 600, Noise: 0.01,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var servers []*DistServer
	for i := 0; i < 2; i++ {
		s, err := RunDistServer(coord.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
	}
	if got := coord.Status().ServersReady; got != 2 {
		t.Fatalf("ServersReady = %d, want 2", got)
	}

	var wg sync.WaitGroup
	losses := make([]float64, 3)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := RunDistWorker(coord.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer w.Close()
			losses[i], errs[i] = w.Steps(40)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	st := coord.Status()
	if st.WorkersJoined != 3 {
		t.Errorf("WorkersJoined = %d, want 3", st.WorkersJoined)
	}
	if st.Reports != 3*40 {
		t.Errorf("Reports = %d, want 120", st.Reports)
	}
	// Losses must have converged to a small value (noise floor ~1e-4).
	for i, l := range losses {
		if l > 0.05 {
			t.Errorf("worker %d final batch loss %g, want < 0.05", i, l)
		}
	}
	if len(st.MeanComputeNS) != 3 {
		t.Errorf("compute stats for %d workers, want 3", len(st.MeanComputeNS))
	}
}

func TestDistributedSlotLimits(t *testing.T) {
	coord, err := StartCoordinator(DistSpec{
		ModelSpec: "linreg:4", Mode: speedfit.Async,
		Workers: 1, Servers: 1, BatchSize: 8, LR: 0.1,
		Seed: 1, Examples: 50,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	s1, err := RunDistServer(coord.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, err := RunDistServer(coord.Addr(), "127.0.0.1:0"); err == nil {
		t.Error("second server accepted for a 1-server job")
	}
	w1, err := RunDistWorker(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if _, err := RunDistWorker(coord.Addr()); err == nil {
		t.Error("second worker accepted for a 1-worker job")
	}
}

func TestDistributedWorkerBlocksUntilServersReady(t *testing.T) {
	coord, err := StartCoordinator(DistSpec{
		ModelSpec: "linreg:4", Mode: speedfit.Async,
		Workers: 1, Servers: 1, BatchSize: 8, LR: 0.1,
		Seed: 1, Examples: 50,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type result struct {
		w   *DistWorker
		err error
	}
	done := make(chan result, 1)
	go func() {
		w, err := RunDistWorker(coord.Addr())
		done <- result{w, err}
	}()
	select {
	case <-done:
		t.Fatal("worker registered before any server was up")
	case <-time.After(30 * time.Millisecond):
	}
	s, err := RunDistServer(coord.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		r.w.Close()
	case <-time.After(3 * time.Second):
		t.Fatal("worker never unblocked after server came up")
	}
}

func TestCoordinatorCloseUnblocksWaiters(t *testing.T) {
	coord, err := StartCoordinator(DistSpec{
		ModelSpec: "linreg:4", Mode: speedfit.Async,
		Workers: 1, Servers: 1, BatchSize: 8, LR: 0.1,
		Seed: 1, Examples: 50,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunDistWorker(coord.Addr())
		done <- err
	}()
	// A worker that has not reached the coordinator when it closes fails
	// all the same.
	// sleep: let the worker start dialing first.
	time.Sleep(20 * time.Millisecond)
	coord.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("worker registration succeeded on a closed coordinator")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("worker registration hung after coordinator close")
	}
}

func TestDistributedMatchesLocalJob(t *testing.T) {
	// The distributed run and the in-process job implement the same math
	// from the same plan: with an identical spec every worker's per-step
	// losses agree bit for bit. With two workers each sync round sums two
	// gradients, which does not depend on their arrival order.
	spec := DistSpec{
		ModelSpec: "linreg:8", Mode: speedfit.Sync,
		Workers: 2, Servers: 2, BatchSize: 100, LR: 0.1,
		Seed: 9, Examples: 200, Noise: 0,
	}
	const steps = 60
	coord, err := StartCoordinator(spec, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < spec.Servers; i++ {
		s, err := RunDistServer(coord.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	dist := make(map[int][]float64) // worker ID → per-step losses
	derr := make([]error, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := RunDistWorker(coord.Addr())
			if err != nil {
				derr[i] = err
				return
			}
			defer w.Close()
			losses := make([]float64, steps)
			for s := range losses {
				if losses[s], err = w.Steps(1); err != nil {
					derr[i] = err
					return
				}
			}
			mu.Lock()
			dist[w.ID] = losses
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range derr {
		if err != nil {
			t.Fatal(err)
		}
	}

	model, err := ModelFromSpec(spec.ModelSpec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := SyntheticData(model, spec.Examples, spec.Noise, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	job, err := StartJob(JobConfig{
		Model: model, Data: data, Mode: spec.Mode,
		Workers: spec.Workers, Servers: spec.Servers,
		BatchSize: spec.BatchSize, LR: spec.LR, Seed: spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Stop()
	stats, err := job.RunSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != spec.Workers*steps {
		t.Fatalf("local job returned %d step stats, want %d", len(stats), spec.Workers*steps)
	}
	for _, st := range stats {
		losses, ok := dist[st.Worker]
		if !ok {
			t.Fatalf("no distributed worker %d", st.Worker)
		}
		if got := losses[st.Step-1]; math.Float64bits(got) != math.Float64bits(st.Loss) {
			t.Errorf("worker %d step %d: distributed loss %v, local %v",
				st.Worker, st.Step, got, st.Loss)
		}
	}
	if last := dist[0][steps-1]; last > 0.1 {
		t.Errorf("worker 0 final loss %g, want < 0.1", last)
	}
}

// TestDistServersExitWhenWorkersDone runs a coordinator, two servers and two
// workers: the servers' Wait returns once the last worker has reported done,
// and not before; the coordinator then closes without waiting on anyone.
func TestDistServersExitWhenWorkersDone(t *testing.T) {
	coord, err := StartCoordinator(DistSpec{
		ModelSpec: "linreg:8", Mode: speedfit.Sync,
		Workers: 2, Servers: 2, BatchSize: 8, LR: 0.1,
		Seed: 3, Examples: 200, Noise: 0.01,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stopped := make(chan error, 2)
	for i := 0; i < 2; i++ {
		s, err := RunDistServer(coord.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		go func() { stopped <- s.Wait(context.Background()) }()
	}

	workers := make([]*DistWorker, 2)
	// Close each worker once, and on a failure path before the coordinator,
	// whose Close waits for every connected worker to hang up.
	var once [2]sync.Once
	closeWorker := func(i int) (err error) {
		once[i].Do(func() { err = workers[i].Close() })
		return err
	}
	defer func() {
		for i := range workers {
			if workers[i] != nil {
				closeWorker(i)
			}
		}
	}()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if workers[i], errs[i] = RunDistWorker(coord.Addr()); errs[i] == nil {
				_, errs[i] = workers[i].Steps(10)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if err := closeWorker(0); err != nil {
		t.Fatal(err)
	}
	if coord.Status().Done {
		t.Fatal("Done with one worker still open")
	}
	select {
	case err := <-stopped:
		t.Fatalf("a server stopped (err %v) before the last worker was done", err)
	default:
	}
	if err := closeWorker(1); err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); !st.Done || st.Reports != 20 {
		t.Fatalf("after the last worker: Done=%v Reports=%d, want true, 20", st.Done, st.Reports)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-stopped:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a server still waiting after every worker reported done")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- coord.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator Close hung after the servers stopped")
	}
}
