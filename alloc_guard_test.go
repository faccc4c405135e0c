package optimus

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/psys"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// TestAllocationBudgets is the CI regression guard for the zero-allocation
// scheduler kernels: once warmed, the hot paths must stay within fixed
// allocs-per-op budgets. The budgets carry roughly 2× headroom over measured
// steady state, so they catch a reintroduced per-item allocation (which scales
// with input size) without flaking on incidental small ones.
func TestAllocationBudgets(t *testing.T) {
	t.Run("allocate", func(t *testing.T) {
		const nJobs = 100
		jobs := zooJobs(1, nJobs)
		capacity := cluster.Resources{
			cluster.CPU:    float64(nJobs) * 40,
			cluster.Memory: float64(nJobs) * 160,
		}
		st := core.NewAllocState()
		st.Allocate(jobs, capacity) // warm the scratch buffers
		allocs := testing.AllocsPerRun(10, func() {
			st.Allocate(jobs, capacity)
		})
		// A per-job or per-grant allocation would cost ≥100 here.
		if allocs > 25 {
			t.Errorf("warmed Allocate: %.1f allocs/op, budget 25", allocs)
		}
	})

	t.Run("place", func(t *testing.T) {
		const nJobs = 80
		jobs := zooJobs(3, nJobs)
		cl := cluster.Uniform(20, cluster.Resources{
			cluster.CPU: 64, cluster.Memory: 256,
		})
		ast := core.NewAllocState()
		alloc := ast.Allocate(jobs, cl.Capacity())
		reqs := make([]core.PlacementRequest, 0, nJobs)
		for _, in := range jobs {
			a := alloc[in.ID]
			if a.PS > 0 && a.Workers > 0 {
				reqs = append(reqs, core.PlacementRequest{
					JobID: in.ID, Alloc: a,
					WorkerRes: in.WorkerRes, PSRes: in.PSRes,
				})
			}
		}
		st := core.NewPlaceState()
		cl.ResetAll()
		st.Place(reqs, cl) // warm the scratch buffers
		allocs := testing.AllocsPerRun(10, func() {
			cl.ResetAll()
			st.Place(reqs, cl)
		})
		// The warmed placer stages rows into reusable scratch and materializes
		// the caller-owned result in one arena pass: a map plus three backing
		// arrays, independent of request and node count (the pre-arena placer
		// cost ~253 here, one allocation per placement row). Budget leaves
		// room for map growth internals without tolerating per-row costs.
		if allocs > 30 {
			t.Errorf("warmed Place: %.1f allocs/op, budget 30", allocs)
		}
	})

	t.Run("session", func(t *testing.T) {
		// One Optimus interval through the kernel pair sim.Round drives:
		// allocate, then place, which also counts the tasks that moved.
		jobs := zooJobs(3, 80)
		cl := cluster.Uniform(20, cluster.Resources{
			cluster.CPU: 64, cluster.Memory: 256,
		})
		inc := core.NewIncremental()
		reqs := make([]core.PlacementRequest, 0, len(jobs))
		interval := func() {
			alloc := inc.Alloc.Allocate(jobs, cl.Capacity())
			reqs = reqs[:0]
			for _, in := range jobs {
				if a := alloc[in.ID]; a.PS > 0 && a.Workers > 0 {
					reqs = append(reqs, core.PlacementRequest{
						JobID: in.ID, Alloc: a,
						WorkerRes: in.WorkerRes, PSRes: in.PSRes,
					})
				}
			}
			inc.Place.Place(reqs, cl)
		}
		interval() // warm the scratch buffers and the migration count's map
		interval()
		allocs := testing.AllocsPerRun(10, interval)
		// The allocate and place budgets above, plus a few for the session:
		// its request-set map is cleared and reused, not rebuilt.
		if allocs > 25+30+5 {
			t.Errorf("warmed session interval: %.1f allocs/op, budget %d", allocs, 25+30+5)
		}
		// Two warm-up intervals, AllocsPerRun's own warm-up and ten runs.
		if st := inc.Stats(); st.AllocFull != 13 || st.PlaceFull != 13 {
			t.Errorf("session counted %d allocations and %d placements, want 13 each", st.AllocFull, st.PlaceFull)
		}
	})

	t.Run("allocate-views", func(t *testing.T) {
		// The daemon's round on a wide cluster: 150 estimated views on 500
		// nodes, a third still on the placed-speed fallback, the rest on
		// fitted §3.2 models. The views are rebuilt every round, so any
		// per-view memo of the speed probes would start cold each time and
		// cost at least one allocation per job; only Allocate is counted.
		c := cluster.Uniform(500, cluster.Resources{cluster.CPU: 32, cluster.Memory: 128})
		zoo := workload.Zoo()
		rng := rand.New(rand.NewSource(9))
		type live struct {
			spec workload.JobSpec
			fit  *lossfit.Fitter
			est  *speedfit.Estimator
		}
		jobs := make([]live, 150)
		fitted := 0
		for i := range jobs {
			m := zoo[i%len(zoo)]
			spec := workload.JobSpec{ID: i, Model: m, Mode: speedfit.Mode(i % 2), Threshold: 0.02, Downscale: 0.2}
			j := live{spec: spec, fit: lossfit.NewFitter(), est: speedfit.NewEstimator(spec.Mode, float64(m.GlobalBatch))}
			if i%3 != 0 {
				sim.PreRunProfile(j.est, spec, 8, 0.03, rng)
				fitted++
			}
			jobs[i] = j
		}
		views := func() []*core.JobInfo {
			infos := make([]*core.JobInfo, len(jobs))
			for i, j := range jobs {
				infos[i] = sim.EstimatedView(c, j.spec, 0, j.fit, j.est, 80, 0.95)
			}
			return infos
		}
		onModel := 0
		for i, in := range views() {
			fallback := sim.EpochsPerSecond(jobs[i].spec, sim.ApproxPlacedSpeed(c, jobs[i].spec, 2, 3)) * 0.8
			if in.Speed(2, 3) != fallback {
				onModel++
			}
		}
		if onModel != fitted {
			t.Fatalf("%d views predict from a fitted model, want %d", onModel, fitted)
		}
		st := core.NewAllocState()
		st.Allocate(views(), c.Capacity()) // warm the scratch buffers
		const runs = 10
		var mallocs uint64
		for r := 0; r < runs; r++ {
			infos := views()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st.Allocate(infos, c.Capacity())
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		if perOp := float64(mallocs) / runs; perOp > 25 {
			t.Errorf("warmed Allocate over %d estimated views (%d fitted): %.1f allocs/op, budget 25", len(jobs), fitted, perOp)
		}
	})

	t.Run("lossfit", func(t *testing.T) {
		m := workload.ZooByName("seq2seq")
		f := &lossfit.Fitter{OutlierWindow: 5}
		for i := 0; i < 200; i++ {
			e := float64(i + 1)
			if err := f.Add(e, m.TrueLoss(e)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Fit(); err != nil { // warm the scratch buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := f.Fit(); err != nil {
				t.Fatal(err)
			}
		})
		// The old fitter allocated per candidate asymptote (41 grid points ×
		// matrix + NNLS scratch ≈ 9500); a warmed refit must stay near zero.
		if allocs > 20 {
			t.Errorf("warmed lossfit refit: %.1f allocs/op, budget 20", allocs)
		}
	})

	t.Run("lossfit-growing", func(t *testing.T) {
		// A running job's history gains one sample per refit. Every buffer
		// the refit sizes by the row count (samples, preprocessing, design
		// matrix, NNLS scratch and factor-cache key) grows geometrically, so
		// 256 refits allocate a few times per buffer in total; sizing any of
		// them exactly would cost at least one allocation per refit.
		const refits = 256
		m := workload.ZooByName("seq2seq")
		f := lossfit.NewFitter()
		for e := 1; e <= 8; e++ {
			if err := f.Add(float64(e), m.TrueLoss(float64(e))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Fit(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for e := 9; e < 9+refits; e++ {
			if err := f.Add(float64(e), m.TrueLoss(float64(e))); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Fit(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		// Measured 54; a buffer sized exactly would add ≥ 256.
		if n := after.Mallocs - before.Mallocs; n > refits/2 {
			t.Errorf("%d refits over a history growing by one sample each: %d allocations, budget %d", refits, n, refits/2)
		}
	})

	t.Run("fitall", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		m := workload.ZooByName("seq2seq")
		fs := make([]*lossfit.Fitter, 64)
		for i := range fs {
			fs[i] = lossfit.NewFitter()
			for e := 1.0; e <= 20; e++ {
				if err := fs[i].Add(e, m.TrueLoss(e+float64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		var refits atomic.Int64 // observe runs on FitAll's workers
		observe := func(float64) { refits.Add(1) }
		lossfit.FitAll(fs, observe)
		refits.Store(0)
		// Every fitter is fresh: FitAll must neither refit nor allocate.
		allocs := testing.AllocsPerRun(10, func() { lossfit.FitAll(fs, observe) })
		if allocs != 0 || refits.Load() != 0 {
			t.Errorf("FitAll over fitted fitters: %.1f allocs/op, %d refits, want 0 and 0", allocs, refits.Load())
		}
		// AllocsPerRun runs at GOMAXPROCS 1, where no worker can start.
		// At 4, starting one allocates its closure, so 100 calls must stay
		// under 100 allocations (stray allocations by other goroutines make
		// an exact count flaky).
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			lossfit.FitAll(fs, observe)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n >= 100 || refits.Load() != 0 {
			t.Errorf("FitAll over fitted fitters at GOMAXPROCS 4: %d allocs in 100 calls, %d refits; a worker started", n, refits.Load())
		}
	})

	t.Run("psstep-tcp", func(t *testing.T) {
		data, _, err := psys.SyntheticRegression(512, 64, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		job, err := psys.StartJob(psys.JobConfig{
			Model: psys.LinearRegression{Features: 64}, Data: data,
			Mode: speedfit.Sync, Workers: 2, Servers: 2,
			BatchSize: 32, LR: 0.05, Transport: psys.TransportTCP, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer job.Stop()
		if _, err := job.RunSteps(1); err != nil { // warm pools and pull buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := job.RunSteps(1); err != nil {
				t.Fatal(err)
			}
		})
		// The gob transport cost ~203 allocs/step; the framed transport leaves
		// mostly the engine's per-step stat bookkeeping (~35).
		if allocs > 70 {
			t.Errorf("warmed TCP training step: %.1f allocs/op, budget 70", allocs)
		}
	})
}

// zooJobs is n seeded jobs drawn round-robin from the model zoo, capped at
// 16 PS and 16 workers.
func zooJobs(seed int64, n int) []*core.JobInfo {
	zoo := workload.Zoo()
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*core.JobInfo, n)
	for i := range jobs {
		m := zoo[i%len(zoo)]
		mode := speedfit.Mode(rng.Intn(2))
		jobs[i] = &core.JobInfo{
			ID:            i,
			RemainingWork: 1000 + rng.Float64()*100000,
			Speed:         func(p, w int) float64 { return m.TrueSpeed(mode, p, w) },
			WorkerRes:     m.WorkerRes,
			PSRes:         m.PSRes,
			MaxWorkers:    16,
			MaxPS:         16,
		}
	}
	return jobs
}
