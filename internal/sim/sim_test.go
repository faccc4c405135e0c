package sim

import (
	"math"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// smallMix builds a fast job mix (heavily downscaled datasets).
func smallMix(n int, seed int64) []workload.JobSpec {
	return workload.Generate(workload.GenConfig{
		N: n, Horizon: 3000, Seed: seed, Downscale: 0.02,
	})
}

func testbedConfig(policy Policy, jobs []workload.JobSpec) Config {
	return Config{
		Cluster:       cluster.Testbed(),
		Jobs:          jobs,
		Policy:        policy,
		Interval:      600,
		Seed:          1,
		UseTrueModels: true,
		ScalingBase:   20,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("expected error for empty config")
	}
	if _, err := Run(Config{Cluster: cluster.Testbed(), Policy: OptimusPolicy()}); err == nil {
		t.Error("expected error for no jobs")
	}
	if _, err := Run(Config{Cluster: cluster.Testbed(), Jobs: smallMix(2, 1)}); err == nil {
		t.Error("expected error for incomplete policy")
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	for _, policy := range []Policy{OptimusPolicy(), DRFPolicy(), TetrisPolicy()} {
		res, err := Run(testbedConfig(policy, smallMix(8, 3)))
		if err != nil {
			t.Fatalf("%s: %v", policy.Name, err)
		}
		if len(res.Unfinished) != 0 {
			t.Errorf("%s: unfinished jobs %v", policy.Name, res.Unfinished)
		}
		if res.Summary.Completed != 8 {
			t.Errorf("%s: completed %d/8", policy.Name, res.Summary.Completed)
		}
		if res.Summary.AvgJCT <= 0 || res.Summary.Makespan <= 0 {
			t.Errorf("%s: degenerate summary %+v", policy.Name, res.Summary)
		}
		if res.Summary.Makespan > maxTime {
			t.Errorf("%s: makespan exceeds maxTime", policy.Name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testbedConfig(OptimusPolicy(), smallMix(6, 7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testbedConfig(OptimusPolicy(), smallMix(6, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.AvgJCT != b.Summary.AvgJCT || a.Summary.Makespan != b.Summary.Makespan {
		t.Errorf("non-deterministic: %+v vs %+v", a.Summary, b.Summary)
	}
}

// The headline Fig-11 shape: Optimus achieves lower average JCT and makespan
// than the DRF fairness scheduler on the same workload.
func TestOptimusBeatsDRF(t *testing.T) {
	jobs := workload.Generate(workload.GenConfig{
		N: 12, Horizon: 6000, Seed: 42, Downscale: 0.03,
	})
	opt, err := Run(testbedConfig(OptimusPolicy(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	drf, err := Run(testbedConfig(DRFPolicy(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("optimus: %s", opt.Summary)
	t.Logf("drf:     %s", drf.Summary)
	if opt.Summary.AvgJCT >= drf.Summary.AvgJCT {
		t.Errorf("Optimus avg JCT %.0f not better than DRF %.0f",
			opt.Summary.AvgJCT, drf.Summary.AvgJCT)
	}
}

func TestRunWithEstimation(t *testing.T) {
	jobs := smallMix(5, 11)
	cfg := testbedConfig(OptimusPolicy(), jobs)
	cfg.UseTrueModels = false
	cfg.PreRunSamples = 5
	cfg.SpeedNoise = 0.03
	cfg.LossNoise = 0.01
	cfg.PriorityFactor = 0.95
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != 5 {
		t.Errorf("completed %d/5 with estimation enabled", res.Summary.Completed)
	}
}

// Fig 15 shape: injected prediction error degrades performance, and the
// degradation is worse for speed error than convergence error at equal e.
func TestErrorInjectionDegrades(t *testing.T) {
	jobs := workload.Generate(workload.GenConfig{
		N: 10, Horizon: 4000, Seed: 5, Downscale: 0.03,
	})
	base := testbedConfig(OptimusPolicy(), jobs)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withErr := base
	withErr.InjectSpeedError = 0.45
	noisy, err := Run(withErr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean avgJCT=%.0f, 45%% speed error avgJCT=%.0f",
		clean.Summary.AvgJCT, noisy.Summary.AvgJCT)
	if noisy.Summary.AvgJCT < clean.Summary.AvgJCT*0.95 {
		t.Errorf("large injected error should not improve JCT: %.0f vs %.0f",
			noisy.Summary.AvgJCT, clean.Summary.AvgJCT)
	}
}

func TestScalingOverheadAccounted(t *testing.T) {
	jobs := smallMix(6, 9)
	cfg := testbedConfig(OptimusPolicy(), jobs)
	cfg.ScalingBase = 30
	cfg.ScalingPerTask = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.ScalingFrac < 0 || res.Summary.ScalingFrac > 0.5 {
		t.Errorf("scaling fraction = %g, want small but non-negative",
			res.Summary.ScalingFrac)
	}
}

func TestTimelineRecorded(t *testing.T) {
	res, err := Run(testbedConfig(OptimusPolicy(), smallMix(5, 13)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline snapshots")
	}
	sawTasks := false
	for _, s := range res.Timeline {
		if s.RunningTasks > 0 {
			sawTasks = true
		}
		if s.WorkerUtil < 0 || s.WorkerUtil > 1 || s.PSUtil < 0 || s.PSUtil > 1 {
			t.Errorf("utilization out of range: %+v", s)
		}
	}
	if !sawTasks {
		t.Error("timeline never shows running tasks")
	}
}

// Fig 14's efficiency claim: Optimus uses allocated resources more
// effectively — here, it sustains a higher average cluster CPU share while
// finishing sooner, because DRF's rigid 1:1 pairs fragment and idle capacity.
func TestOptimusUsesClusterMoreEffectively(t *testing.T) {
	jobs := workload.Generate(workload.GenConfig{
		N: 10, Horizon: 2000, Seed: 21, Downscale: 0.03,
	})
	avgShare := func(p Policy) (float64, float64) {
		res, err := Run(testbedConfig(p, jobs))
		if err != nil {
			t.Fatal(err)
		}
		var share float64
		var n int
		for _, s := range res.Timeline {
			if s.RunningTasks == 0 {
				continue
			}
			share += s.ClusterShare
			n++
		}
		if n == 0 {
			t.Fatalf("%s: empty timeline", p.Name)
		}
		return share / float64(n), res.Summary.AvgJCT
	}
	oShare, oJCT := avgShare(OptimusPolicy())
	dShare, dJCT := avgShare(DRFPolicy())
	t.Logf("cpu share: optimus=%.2f drf=%.2f; avgJCT: optimus=%.0f drf=%.0f",
		oShare, dShare, oJCT, dJCT)
	if oShare < dShare {
		t.Errorf("Optimus cluster share %.2f below DRF %.2f", oShare, dShare)
	}
	if oJCT >= dJCT {
		t.Errorf("Optimus avgJCT %.0f not better than DRF %.0f", oJCT, dJCT)
	}
}

func TestStragglersHurtButOptimusRecovers(t *testing.T) {
	jobs := smallMix(6, 31)
	clean := testbedConfig(OptimusPolicy(), jobs)
	cleanRes, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	strag := clean
	strag.StragglerProb = 0.5
	stragRes, err := Run(strag)
	if err != nil {
		t.Fatal(err)
	}
	if stragRes.Summary.AvgJCT < cleanRes.Summary.AvgJCT*0.99 {
		t.Errorf("stragglers should not speed things up: %.0f vs %.0f",
			stragRes.Summary.AvgJCT, cleanRes.Summary.AvgJCT)
	}
	// DRF (no straggler replacement) should suffer at least as much relative
	// slowdown as Optimus.
	drfClean, err := Run(testbedConfig(DRFPolicy(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	drfStrag := testbedConfig(DRFPolicy(), jobs)
	drfStrag.StragglerProb = 0.5
	drfStragRes, err := Run(drfStrag)
	if err != nil {
		t.Fatal(err)
	}
	optSlow := stragRes.Summary.AvgJCT / cleanRes.Summary.AvgJCT
	drfSlow := drfStragRes.Summary.AvgJCT / drfClean.Summary.AvgJCT
	t.Logf("straggler slowdown: optimus %.2fx, drf %.2fx", optSlow, drfSlow)
	if optSlow > drfSlow*1.3 {
		t.Errorf("Optimus with replacement degraded more (%.2fx) than DRF (%.2fx)",
			optSlow, drfSlow)
	}
}

func TestEpochsPerSecond(t *testing.T) {
	spec := workload.JobSpec{
		Model: workload.ZooByName("resnext-110"), Mode: speedfit.Sync,
		Downscale: 1,
	}
	// 1 step/s sync covers 512 examples/s; 60000-example epoch → 512/60000.
	got := EpochsPerSecond(spec, 1)
	want := 512.0 / 60000
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("epochsPerSecond = %g, want %g", got, want)
	}
	spec.Mode = speedfit.Async
	got = EpochsPerSecond(spec, 1) // aggregate steps cover m=128 examples
	want = 128.0 / 60000
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("async epochsPerSecond = %g, want %g", got, want)
	}
}

func TestHybridPolicies(t *testing.T) {
	jobs := smallMix(4, 17)
	hybrid := Hybrid("optalloc+spread", OptimusPolicy().Allocate, DRFPolicy().Place)
	res, err := Run(testbedConfig(hybrid, jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != 4 {
		t.Errorf("hybrid completed %d/4", res.Summary.Completed)
	}
	h2 := Hybrid("drfalloc+optplace", DRFAllocatorOnly, OptimusPolicy().Place)
	if _, err := Run(testbedConfig(h2, jobs)); err != nil {
		t.Fatal(err)
	}
	h3 := Hybrid("tetrisalloc+optplace", TetrisAllocatorOnly, OptimusPolicy().Place)
	if _, err := Run(testbedConfig(h3, jobs)); err != nil {
		t.Fatal(err)
	}
}

func TestMixedShareSchedule(t *testing.T) {
	jobs := smallMix(6, 41)
	cfg := testbedConfig(OptimusPolicy(), jobs)
	cfg.ShareSchedule = func(tm float64) float64 {
		if tm < 3000 {
			return 0.5
		}
		return 1.0
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed != 6 {
		t.Errorf("completed %d/6 under a share schedule", res.Summary.Completed)
	}
	// A permanently tiny share must still make progress (clamped to ≥5%).
	cfg2 := testbedConfig(OptimusPolicy(), jobs)
	cfg2.ShareSchedule = func(float64) float64 { return 0 }
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.Completed == 0 {
		t.Error("no jobs completed under the minimum share clamp")
	}
	if res2.Summary.AvgJCT < res.Summary.AvgJCT {
		t.Errorf("tiny share JCT %.0f should not beat day/night %.0f",
			res2.Summary.AvgJCT, res.Summary.AvgJCT)
	}
}

func TestReconfigDamperReducesChanges(t *testing.T) {
	jobs := workload.Generate(workload.GenConfig{
		N: 10, Horizon: 4000, Seed: 43, Downscale: 0.03,
	})
	scaling := func(threshold float64) float64 {
		cfg := testbedConfig(OptimusPolicy(), jobs)
		cfg.ScalingBase = 20
		cfg.ScalingPerTask = 0.5
		cfg.ReconfigThreshold = threshold
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.ScalingFrac
	}
	free, damped := scaling(0), scaling(0.2)
	t.Logf("scaling overhead: undamped %.2f%%, damped %.2f%%", free*100, damped*100)
	if damped > free {
		t.Errorf("damper increased scaling overhead: %.4f > %.4f", damped, free)
	}
}

func TestEstimateEpochsFallsBackToPrior(t *testing.T) {
	js := NewJob(workload.JobSpec{
		Model: workload.ZooByName("cnn-rand"), Mode: speedfit.Sync,
		Threshold: 0.02,
	})
	estimate := func() float64 { return EstimatedEpochs(js.LossFit, js.Spec.Threshold, 42) }
	if got := estimate(); got != 42 {
		t.Errorf("prior = %g, want 42", got)
	}
	// With enough clean points the fit takes over.
	m := js.Spec.Model
	for e := 1.0; e <= 12; e++ {
		if err := js.LossFit.Add(e, m.TrueLoss(e)); err != nil {
			t.Fatal(err)
		}
	}
	got := estimate()
	if got == 42 {
		t.Error("fit never engaged despite 12 clean points")
	}
	truth := m.EpochsToConverge(js.Spec.Threshold, 3)
	if math.Abs(got-truth)/truth > 0.5 {
		t.Errorf("estimate %g far from truth %g", got, truth)
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 misbehaves")
	}
}
