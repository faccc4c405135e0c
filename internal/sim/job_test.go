package sim

import (
	"math/rand"
	"testing"

	"optimus/internal/core"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// TestJob drives each sim.Job method from a fresh job with 10 ground-truth
// epochs, 1 done.
func TestJob(t *testing.T) {
	spec := workload.JobSpec{ID: 3, Model: workload.ZooByName("resnet-50"), Mode: speedfit.Async, Threshold: 0.02}
	placement := func(ps, w int, nodes ...string) core.Placement {
		pl := core.Placement{NodeIDs: nodes}
		for range nodes {
			pl.PSOnNode = append(pl.PSOnNode, ps/len(nodes))
			pl.WorkersOnNode = append(pl.WorkersOnNode, w/len(nodes))
		}
		return pl
	}
	deploy := func(t *testing.T, j *Job, pl core.Placement, wantFresh, wantChanged bool) {
		t.Helper()
		j.Pause = 7
		fresh, changed := j.Deploy(pl)
		if fresh != wantFresh || changed != wantChanged {
			t.Errorf("Deploy = fresh %v, changed %v; want %v, %v", fresh, changed, wantFresh, wantChanged)
		}
		ps, w := pl.Counts()
		if !j.Placed || j.Alloc != (core.Allocation{PS: ps, Workers: w}) || len(j.Nodes) != len(pl.NodeIDs) || j.Pause != 0 {
			t.Errorf("after Deploy: placed %v, alloc %+v, nodes %v, pause %g", j.Placed, j.Alloc, j.Nodes, j.Pause)
		}
	}
	// rate is the epochs/s of 1 step/s.
	rate := EpochsPerSecond(spec, 1)
	advance := func(t *testing.T, j *Job, pause, stepsPerSec float64, want Window) {
		t.Helper()
		j.Pause = pause
		got := j.Advance(600, 1200, stepsPerSec)
		if got != want {
			t.Errorf("Advance = %+v, want %+v", got, want)
		}
		if j.Progress != 1 {
			t.Errorf("Advance moved Progress to %g", j.Progress)
		}
	}
	// observe measures and observes one interval, checking that Measure
	// drew exactly draws normals from rng.
	observe := func(t *testing.T, j *Job, stepsPerSec float64, draws int) (speed, loss float64) {
		t.Helper()
		rng, twin := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		speed, loss = j.Measure(j.Progress, stepsPerSec, 0.03, 0.03, rng)
		j.Observe(2, 4, speed, j.Progress, loss)
		for i := 0; i < draws; i++ {
			twin.NormFloat64()
		}
		if rng.Int63() != twin.Int63() {
			t.Errorf("Measure did not draw exactly %d normals", draws)
		}
		return speed, loss
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, j *Job)
	}{
		{"deploy fresh", func(t *testing.T, j *Job) {
			deploy(t, j, placement(2, 4, "n1", "n2"), true, false)
		}},
		{"deploy changed", func(t *testing.T, j *Job) {
			deploy(t, j, placement(2, 4, "n1", "n2"), true, false)
			deploy(t, j, placement(2, 2, "n1", "n2"), false, true)
		}},
		{"deploy unchanged on other nodes", func(t *testing.T, j *Job) {
			deploy(t, j, placement(2, 4, "n1", "n2"), true, false)
			deploy(t, j, placement(2, 4, "n3"), false, false)
		}},
		{"undeploy then deploy is fresh", func(t *testing.T, j *Job) {
			deploy(t, j, placement(2, 4, "n1", "n2"), true, false)
			j.Pause = 7
			j.Undeploy()
			if j.Placed || j.Alloc != (core.Allocation{}) || j.Nodes != nil || j.Spread.PSOnNode != nil || j.Pause != 7 {
				t.Errorf("after Undeploy: placed %v, alloc %+v, nodes %v, spread %+v, pause %g", j.Placed, j.Alloc, j.Nodes, j.Spread, j.Pause)
			}
			deploy(t, j, placement(2, 4, "n1", "n2"), true, false)
		}},
		{"advance partial", func(t *testing.T, j *Job) {
			sps := 0.5 / (rate * 600) // half an epoch per 600 s
			r := EpochsPerSecond(spec, sps)
			advance(t, j, 100, sps, Window{Rate: r, Trained: true, Progress: 1 + r*500})
		}},
		{"advance completes at start + remaining/rate", func(t *testing.T, j *Job) {
			sps := 100 / (rate * 600)
			r := EpochsPerSecond(spec, sps)
			advance(t, j, 100, sps, Window{Rate: r, Trained: true, Progress: 10, Done: true, DoneAt: 700 + 9/r})
		}},
		{"advance pause fills the window", func(t *testing.T, j *Job) {
			advance(t, j, 600, 1, Window{Rate: rate, Progress: 1})
			advance(t, j, 900, 1, Window{Rate: rate, Progress: 1})
		}},
		{"advance at zero rate", func(t *testing.T, j *Job) {
			advance(t, j, 0, 0, Window{Progress: 1})
		}},
		{"observe speed and loss", func(t *testing.T, j *Job) {
			speed, loss := observe(t, j, 3, 2)
			if speed <= 0 || loss <= 0 || j.SpeedEst.Configurations() != 1 || j.LossFit.Len() != 1 {
				t.Errorf("Measure = %g, %g; estimators hold %d speeds, %d losses", speed, loss, j.SpeedEst.Configurations(), j.LossFit.Len())
			}
		}},
		{"observe speed only", func(t *testing.T, j *Job) {
			j.Progress = 0
			if speed, loss := observe(t, j, 3, 1); speed <= 0 || loss != 0 {
				t.Errorf("Measure = %g, %g", speed, loss)
			}
		}},
		{"observe loss only", func(t *testing.T, j *Job) {
			if speed, loss := observe(t, j, 0, 1); speed != 0 || loss <= 0 {
				t.Errorf("Measure = %g, %g", speed, loss)
			}
		}},
		{"observe nothing", func(t *testing.T, j *Job) {
			j.Progress = 0
			if speed, loss := observe(t, j, 0, 0); speed != 0 || loss != 0 {
				t.Errorf("Measure = %g, %g", speed, loss)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := NewJob(spec)
			j.TotalEpochs, j.Progress = 10, 1
			tc.run(t, &j)
		})
	}
}
