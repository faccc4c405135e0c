package sim

import (
	"runtime"
	"testing"

	"optimus/internal/workload"
)

// refitRunDigest is digestRun's value for refitRunConfig, recorded when
// sim.Run still refit each job serially inside its scheduler view.
const refitRunDigest = 0xa04f4a59ddb18f4c

// refitRunConfig is an estimated-model run long enough that most intervals
// refit several jobs' loss curves at once.
func refitRunConfig() Config {
	cfg := testbedConfig(OptimusPolicy(), workload.Generate(workload.GenConfig{
		N: 12, Horizon: 3000, Seed: 7, Downscale: 0.5,
	}))
	cfg.UseTrueModels = false
	cfg.SpeedNoise, cfg.LossNoise = 0.03, 0.01
	return cfg
}

// TestRunRefitParallelInvisible pins that sim.Run's parallel §3.1 refits
// cannot be observed: the schedule digest is the same at GOMAXPROCS 1 and 4
// and equals the one recorded with serial refits. The refit histogram
// counts exactly the refits the views need: in each interval, the jobs
// with at least five loss samples whose fitter gained one since the last.
func TestRunRefitParallelInvisible(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		digest, _ := digestRun(t, refitRunConfig())
		runtime.GOMAXPROCS(prev)
		if digest != refitRunDigest {
			t.Errorf("GOMAXPROCS %d: digest %#x, want %#x", procs, digest, uint64(refitRunDigest))
		}
	}

	gens := map[int]uint64{}
	want := uint64(0)
	deployHook = func(_ int, active []*jobState) {
		for _, js := range active {
			if g := js.LossFit.Generation(); g != gens[js.Spec.ID] {
				gens[js.Spec.ID] = g
				if js.LossFit.Len() >= 5 {
					want++
				}
			}
		}
	}
	defer func() { deployHook = nil }()
	res, err := Run(refitRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.RefitDuration().Count(); got != want || want < 100 {
		t.Errorf("refit histogram counted %d refits, want %d (and at least 100)", got, want)
	}
}
