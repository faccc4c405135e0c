package sim

import (
	"fmt"
	"math"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/lossfit"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// refApproxPlacedSpeed is ApproxPlacedSpeed as it was before the capacity
// scan was hoisted out of the probe: the whole formula on every call.
func refApproxPlacedSpeed(c *cluster.Cluster, spec workload.JobSpec, p, w int) float64 {
	if p < 1 || w < 1 {
		return 0
	}
	taskCPU := (spec.Model.WorkerRes[cluster.CPU] + spec.Model.PSRes[cluster.CPU]) / 2
	nodeCPU := c.Capacity()[cluster.CPU] / float64(c.Len())
	perNode := 1.0
	if taskCPU > 0 {
		perNode = math.Floor(nodeCPU / taskCPU)
		if perNode < 1 {
			perNode = 1
		}
	}
	return spec.Model.SmoothPlacedSpeed(spec.Mode, p, w, perNode)
}

// TestFallbackSpeedMatchesApproxPlaced pins the hoisted placed-speed surface
// bit for bit: for every zoo model in both modes, on a mixed 60-node and a
// uniform 500-node cluster, over a (p, w) grid that includes p = 0 and w = 0,
// ApproxPlacedSpeed equals the per-probe formula, and a job without a fitted
// speed model — estimatedSpeed's fallback, through EstimatedView — predicts
// exactly EpochsPerSecond(spec, ApproxPlacedSpeed(c, spec, p, w)) * 0.8.
func TestFallbackSpeedMatchesApproxPlaced(t *testing.T) {
	mixed := cluster.New()
	for i := 0; i < 60; i++ {
		res := cluster.Resources{cluster.CPU: 16, cluster.Memory: 80, cluster.Bandwidth: 1}
		if i%3 == 2 {
			res = cluster.Resources{cluster.CPU: 8, cluster.Memory: 48, cluster.GPU: 2, cluster.Bandwidth: 1}
		}
		if err := mixed.AddNode(cluster.NewNode(fmt.Sprintf("n%d", i), res)); err != nil {
			t.Fatal(err)
		}
	}
	wide := cluster.Uniform(500, cluster.Resources{cluster.CPU: 32, cluster.Memory: 128, cluster.Bandwidth: 1})

	var probes, nonzero int
	for _, c := range []*cluster.Cluster{mixed, wide} {
		for _, m := range workload.Zoo() {
			for _, mode := range []speedfit.Mode{speedfit.Async, speedfit.Sync} {
				spec := workload.JobSpec{ID: 1, Model: m, Mode: mode, Threshold: 0.02, Downscale: 0.5}
				est := speedfit.NewEstimator(mode, float64(m.GlobalBatch))
				info := EstimatedView(c, spec, 0, lossfit.NewFitter(), est, 80, 0.95)
				for p := 0; p <= 24; p++ {
					for w := 0; w <= 24; w++ {
						placed := ApproxPlacedSpeed(c, spec, p, w)
						if ref := refApproxPlacedSpeed(c, spec, p, w); math.Float64bits(placed) != math.Float64bits(ref) {
							t.Fatalf("%d nodes, %s/%v, (%d, %d): ApproxPlacedSpeed %v, per-probe formula %v",
								c.Len(), m.Name, mode, p, w, placed, ref)
						}
						want := EpochsPerSecond(spec, placed) * 0.8
						if got := info.Speed(p, w); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%d nodes, %s/%v, (%d, %d): fallback speed %v, want %v",
								c.Len(), m.Name, mode, p, w, got, want)
						}
						probes++
						if want != 0 {
							nonzero++
						}
					}
				}
			}
		}
	}
	if nonzero == 0 || nonzero == probes {
		t.Fatalf("%d of %d probes nonzero: the grid must cover both", nonzero, probes)
	}
}
