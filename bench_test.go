// Package optimus's root benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md's experiment index) and micro-benchmarks
// the core algorithms. Each BenchmarkFigN/BenchmarkTableN prints the
// regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. Benchmarks use the experiments package's
// quick mode; use cmd/optimus-sim for paper-scale sweeps.
package optimus

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/experiments"
	"optimus/internal/lossfit"
	"optimus/internal/nnls"
	"optimus/internal/obs"
	"optimus/internal/psassign"
	"optimus/internal/psys"
	"optimus/internal/serve"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/wal"
	"optimus/internal/workload"
)

var printOnce sync.Map // experiment id → *sync.Once

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		onceI, _ := printOnce.LoadOrStore(id, &sync.Once{})
		onceI.(*sync.Once).Do(func() { tbl.Print(os.Stdout) })
	}
}

// --- one benchmark per paper exhibit ---

func BenchmarkTable1Workloads(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig1TrainingCurves(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2TrainingTimes(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig4SpeedVsConfig(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5LossCurves(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6PredictionError(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7OnlineFitting(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8SampleEfficiency(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9SpeedFunctions(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkTable2Coefficients(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig11Comparison(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12Scalability(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13Stats(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14Timelines(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15ErrorSensitivity(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16TrainingModes(b *testing.B)    { benchExperiment(b, "fig16") }
func BenchmarkFig17ArrivalProcesses(b *testing.B) { benchExperiment(b, "fig17") }
func BenchmarkFig18AllocAblation(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19PlacementAblation(b *testing.B) {
	benchExperiment(b, "fig19")
}
func BenchmarkTable3ParamDistribution(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig10PlacementExample(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkAblationPriority(b *testing.B)        { benchExperiment(b, "ablation-priority") }
func BenchmarkStragglerStudy(b *testing.B)          { benchExperiment(b, "stragglers") }
func BenchmarkMixedWorkloads(b *testing.B)          { benchExperiment(b, "mixed") }
func BenchmarkFig20LoadBalanceSpeed(b *testing.B)   { benchExperiment(b, "fig20") }
func BenchmarkFig21PAASpeedup(b *testing.B)         { benchExperiment(b, "fig21") }
func BenchmarkOverheadScaling(b *testing.B)         { benchExperiment(b, "overhead") }

// --- core-algorithm micro-benchmarks ---

// BenchmarkAllocate measures one §4.1 marginal-gain allocation pass at the
// scale Fig. 12 reports (jobs × a large cluster).
func BenchmarkAllocate(b *testing.B) {
	for _, nJobs := range []int{100, 1000} {
		b.Run(fmt.Sprintf("jobs=%d", nJobs), func(b *testing.B) {
			zoo := workload.Zoo()
			rng := rand.New(rand.NewSource(1))
			jobs := make([]*core.JobInfo, nJobs)
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
			capacity := cluster.Resources{
				cluster.CPU:    float64(nJobs) * 40,
				cluster.Memory: float64(nJobs) * 160,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Allocate(jobs, capacity)
			}
		})
	}
}

// BenchmarkPlace measures one §4.2 placement pass.
func BenchmarkPlace(b *testing.B) {
	for _, nNodes := range []int{100, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", nNodes), func(b *testing.B) {
			reqs := make([]core.PlacementRequest, 50)
			for i := range reqs {
				reqs[i] = core.PlacementRequest{
					JobID: i,
					Alloc: core.Allocation{PS: 2 + i%3, Workers: 3 + i%5},
					WorkerRes: cluster.Resources{
						cluster.CPU: 5, cluster.Memory: 10,
					},
					PSRes: cluster.Resources{
						cluster.CPU: 3, cluster.Memory: 8,
					},
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := cluster.Uniform(nNodes, cluster.Resources{
					cluster.CPU: 32, cluster.Memory: 128,
				})
				b.StartTimer()
				core.Place(reqs, c)
			}
		})
	}
}

// BenchmarkLossFit measures one §3.1 online refit over a realistic number of
// accumulated loss points.
func BenchmarkLossFit(b *testing.B) {
	m := workload.ZooByName("seq2seq")
	pts := make([]lossfit.Point, 200)
	for i := range pts {
		e := float64(i + 1)
		pts[i] = lossfit.Point{K: e, Loss: m.TrueLoss(e)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lossfit.FitPoints(pts, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeedFit measures one §3.2 NNLS speed-model fit.
func BenchmarkSpeedFit(b *testing.B) {
	m := workload.ZooByName("resnet-50")
	var samples []speedfit.Sample
	for p := 1; p <= 12; p++ {
		for w := 1; w <= 12; w++ {
			samples = append(samples, speedfit.Sample{
				P: p, W: w, Speed: m.TrueSpeed(speedfit.Sync, p, w),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speedfit.Fit(speedfit.Sync, samples, float64(m.GlobalBatch)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNLS measures the Lawson–Hanson solver cold (a fresh workspace per
// solve, what one-shot callers see) and warm (one reused workspace whose
// previous passive set seeds the next solve). The problem sequence mimics the
// online refit pattern: one design matrix against slightly perturbed
// observations, so the active set rarely changes between solves and the warm
// start skips re-discovering it.
func BenchmarkNNLS(b *testing.B) {
	const rows, cols = 144, 6
	rng := rand.New(rand.NewSource(3))
	m := &nnls.Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	// Ground truth with inactive coordinates makes the active-set search
	// non-trivial; subtracting a multiple of the inactive columns keeps their
	// duals firmly negative, so the optimal passive set is stable across the
	// perturbed observations (the case warm-starting is designed for).
	truth := []float64{1.5, 0, 0.8, 0, 2.2, 0}
	rhss := make([][]float64, 8)
	for v := range rhss {
		rhs := make([]float64, rows)
		for i := 0; i < rows; i++ {
			var dot float64
			for j := 0; j < cols; j++ {
				if truth[j] > 0 {
					dot += m.Data[i*cols+j] * truth[j]
				} else {
					dot -= 0.2 * m.Data[i*cols+j]
				}
			}
			rhs[i] = dot * (1 + 0.005*rng.NormFloat64())
		}
		rhss[v] = rhs
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := nnls.Solve(m, rhss[i%len(rhss)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ws := nnls.NewWorkspace()
		for i := 0; i < b.N; i++ {
			if _, _, err := ws.Solve(m, rhss[i%len(rhss)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTracedInterval runs the same full simulation with the internal/obs
// layer off and on; the ns/op delta between the subbenchmarks is the whole
// cost of span recording, the per-job decision audit and latency histograms
// (budgeted at <5% in DESIGN.md §13). One op is an entire multi-interval run, so the
// measurement covers every traced code path, not a microbenchmark of one.
func BenchmarkTracedInterval(b *testing.B) {
	jobs := workload.Generate(workload.GenConfig{
		N: 9, Horizon: 8000, Seed: 101,
		Downscale: 0.03, Arrivals: workload.UniformArrivals,
	})
	// The sinks live across iterations exactly as in a daemon, whose rings
	// wrap in place for the life of the process; constructing (or zeroing)
	// multi-megabyte rings per run would measure setup, not tracing.
	tr := obs.NewTracer(obs.DefaultSpanBuffer)
	au := obs.NewAuditLog(obs.DefaultAuditBuffer)
	run := func(b *testing.B, traced bool) {
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{
				Cluster:        cluster.Testbed(),
				Jobs:           jobs,
				Policy:         sim.OptimusPolicy(),
				Interval:       600,
				Seed:           1,
				PreRunSamples:  6,
				SpeedNoise:     0.03,
				LossNoise:      0.01,
				PriorityFactor: 0.95,
			}
			if traced {
				cfg.Trace = tr
				cfg.Audit = au
			}
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkPAA measures the §5.3 parameter-assignment algorithm on
// ResNet-50's 157 blocks.
func BenchmarkPAA(b *testing.B) {
	blocks := workload.ZooByName("resnet-50").ParameterBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psassign.PAA(blocks, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSStep measures one synchronous PS training step end to end
// (pull, gradient, push) over each transport.
func BenchmarkPSStep(b *testing.B) {
	for _, tr := range []psys.TransportKind{psys.TransportLocal, psys.TransportTCP} {
		b.Run(string(tr), func(b *testing.B) {
			data, _, err := psys.SyntheticRegression(512, 64, 0.01, 1)
			if err != nil {
				b.Fatal(err)
			}
			job, err := psys.StartJob(psys.JobConfig{
				Model: psys.LinearRegression{Features: 64}, Data: data,
				Mode: speedfit.Sync, Workers: 2, Servers: 2,
				BatchSize: 32, LR: 0.05, Transport: tr, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer job.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := job.RunSteps(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleInterval measures one cold scheduling interval (allocate +
// place from scratch) with the single-engine §4
// kernels at the scalability design point: 10k jobs across 10k nodes.
func BenchmarkScaleInterval(b *testing.B) {
	const nJobs, nNodes = 10000, 10000
	rng := rand.New(rand.NewSource(1))
	jobs := make([]*core.JobInfo, nJobs)
	for i := range jobs {
		wcpu := 2 + float64(rng.Intn(6))
		pcpu := 1 + float64(rng.Intn(4))
		sa := 0.5 + rng.Float64()
		sb := 0.5 + rng.Float64()*2
		jobs[i] = &core.JobInfo{
			ID:            i + 1,
			RemainingWork: 1000 + rng.Float64()*100000,
			Speed: func(p, w int) float64 {
				return sa * float64(p*w) / (sb*float64(p) + float64(w))
			},
			WorkerRes:  cluster.Resources{cluster.CPU: wcpu, cluster.Memory: 4 * wcpu},
			PSRes:      cluster.Resources{cluster.CPU: pcpu, cluster.Memory: 4 * pcpu},
			MaxWorkers: 16,
			MaxPS:      16,
		}
	}
	cl := cluster.Uniform(nNodes, cluster.Resources{cluster.CPU: 32, cluster.Memory: 128})
	capacity := cl.Capacity()
	alloc, place := core.NewAllocState(), core.NewPlaceState()
	reqs := make([]core.PlacementRequest, 0, nJobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grants := alloc.Allocate(jobs, capacity)
		cl.ResetAll()
		reqs = reqs[:0]
		for _, in := range jobs {
			a := grants[in.ID]
			if a.PS > 0 && a.Workers > 0 {
				reqs = append(reqs, core.PlacementRequest{
					JobID: in.ID, Alloc: a,
					WorkerRes: in.WorkerRes, PSRes: in.PSRes,
				})
			}
		}
		place.Place(reqs, cl)
	}
}

// BenchmarkSubmitWAL measures the open-loop admission hot path against each
// WAL durability level: wal=none is the pre-WAL baseline (no log attached),
// off appends without fsync, group batches concurrent acks into shared
// fsyncs (the optimusd default), each fsyncs per record. The gap between
// none and group is the price of crash-consistent admission.
func BenchmarkSubmitWAL(b *testing.B) {
	for _, mode := range []string{"none", "off", "group", "each"} {
		b.Run("wal="+mode, func(b *testing.B) {
			d, err := serve.New(serve.Config{Cluster: cluster.Testbed(), MaxJobs: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			if mode != "none" {
				pol, err := wal.ParseFsyncPolicy(mode)
				if err != nil {
					b.Fatal(err)
				}
				l, err := wal.Open(wal.Options{Dir: b.TempDir(), Fsync: pol})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				d.AttachWAL(l)
			}
			req := serve.SubmitRequest{Model: "resnext-110", Mode: "async"}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := d.Submit(req); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkFlightRecorder measures the always-on black-box flight recorder
// (DESIGN.md §18) on the daemon's scheduling round, its hottest record site:
// identical daemons step through live jobs with the recorder enabled (the
// default) and disabled. The ns/op delta is the recorder's whole budget,
// capped at <2% in the design; allocs/op must be identical — the record path
// is alloc-free, so keeping it on adds no GC pressure.
func BenchmarkFlightRecorder(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "flight=off"
		if on {
			name = "flight=on"
		}
		b.Run(name, func(b *testing.B) {
			d, err := serve.New(serve.Config{Cluster: cluster.Testbed(), MaxJobs: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			d.Flight().SetEnabled(on)
			for i := 0; i < 8; i++ {
				if _, err := d.Submit(serve.SubmitRequest{Model: "resnext-110", Mode: "async"}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Step()
			}
		})
	}
}
