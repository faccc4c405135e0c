package sim

import (
	"math"
	"math/rand"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// This file is the estimation machinery shared between the batch simulator
// and the optimusd daemon: pre-run speed profiling, the placement-aware
// fallback speed surface, and the construction of the scheduler's JobInfo
// from a live job's online estimators. sim.Run drives it per replayed
// interval; serve.Daemon drives it per wall-clock tick.

// ApproxPlacedSpeed predicts the speed of configuration (p, w) including the
// cross-server transfer cost of spreading the job evenly over the fewest
// servers that can host it. This is what a measured speed model would have
// learned — the paper's fitted f(p,w) is calibrated from placed deployments,
// not from an ideal single-switch abstraction.
func ApproxPlacedSpeed(c *cluster.Cluster, spec workload.JobSpec, p, w int) float64 {
	return placedSpeed(c, spec)(p, w)
}

// placedSpeed is ApproxPlacedSpeed as a function of (p, w) for one job on c.
// The O(nodes) capacity scan behind the tasks-per-node figure runs once, here,
// rather than on every probe; node capacities never change after a cluster
// is built.
func placedSpeed(c *cluster.Cluster, spec workload.JobSpec) func(p, w int) float64 {
	taskCPU := (spec.Model.WorkerRes[cluster.CPU] + spec.Model.PSRes[cluster.CPU]) / 2
	nodeCPU := c.Capacity()[cluster.CPU] / float64(c.Len())
	perNode := 1.0
	if taskCPU > 0 {
		perNode = math.Floor(nodeCPU / taskCPU)
		if perNode < 1 {
			perNode = 1
		}
	}
	return func(p, w int) float64 {
		if p < 1 || w < 1 {
			return 0
		}
		return spec.Model.SmoothPlacedSpeed(spec.Mode, p, w, perNode)
	}
}

// ProfileSamples simulates the §3.2 sample runs on a small dataset: n (p, w)
// configurations measured against the job's ground-truth physics with
// relative observation noise. It only draws; the caller feeds the samples to
// the job's speed estimator, so a durability layer can log them first and
// replay the same Observe calls (DESIGN.md §17).
func ProfileSamples(spec workload.JobSpec, n int, noise float64, rng *rand.Rand) []speedfit.Sample {
	plan := speedfit.SamplingPlan(n, 24)
	out := make([]speedfit.Sample, 0, len(plan))
	for _, c := range plan {
		truth := spec.Model.TrueSpeed(spec.Mode, c[0], c[1])
		if truth <= 0 {
			continue
		}
		obs := truth * (1 + noise*rng.NormFloat64())
		if obs <= 0 {
			obs = truth
		}
		out = append(out, speedfit.Sample{P: c[0], W: c[1], Speed: obs})
	}
	return out
}

// PreRunProfile feeds est the §3.2 samples ProfileSamples draws.
func PreRunProfile(est *speedfit.Estimator, spec workload.JobSpec, n int, noise float64, rng *rand.Rand) {
	for _, s := range ProfileSamples(spec, n, noise, rng) {
		_ = est.Observe(s.P, s.W, s.Speed) // valid by construction
	}
}

// EstimatedEpochs runs the online loss fit and converts it to a total-epoch
// estimate, falling back to the prior when the fit is not ready. It is the
// one remaining-work rule: EstimatedView and optimusd's job status share it.
func EstimatedEpochs(fit *lossfit.Fitter, threshold, priorEpochs float64) float64 {
	if fit.Len() >= 5 {
		if m, err := fit.Fit(); err == nil {
			if steps, err := m.StepsToConverge(threshold, 1, 3); err == nil {
				return steps
			}
		}
	}
	return priorEpochs
}

// estimatedSpeed returns the scheduler's epochs/s predictor for a live job:
// the fitted §3.2 model once it is over-determined, otherwise a pessimistic
// placement-aware fallback so the job stays schedulable but unfavoured.
func estimatedSpeed(c *cluster.Cluster, spec workload.JobSpec, est *speedfit.Estimator) func(p, w int) float64 {
	// Trust the fitted model only once it is over-determined; an
	// exactly-determined fit (5 sync samples for 5 coefficients) can be
	// arbitrarily biased off the sampled points.
	minSamples := 5
	if spec.Mode == speedfit.Sync {
		minSamples = 6
	}
	if est.Configurations() >= minSamples {
		if m, err := est.Fit(); err == nil {
			return func(p, w int) float64 {
				return EpochsPerSecond(spec, m.Speed(p, w))
			}
		}
	}
	placed := placedSpeed(c, spec)
	return func(p, w int) float64 {
		return EpochsPerSecond(spec, placed(p, w)) * 0.8
	}
}

// EstimatedView builds the scheduler's JobInfo for one live job from its
// online estimators — the default (estimation-driven) path of the
// simulator's schedulerView, shared with the optimusd daemon. progress is
// the job's completed epochs; priorEpochs and priorityFactor mirror the
// same-named Config fields. The returned Speed closure reads the estimators'
// state as of this call and must be rebuilt each scheduling interval.
func EstimatedView(c *cluster.Cluster, spec workload.JobSpec, progress float64,
	fit *lossfit.Fitter, est *speedfit.Estimator,
	priorEpochs, priorityFactor float64) *core.JobInfo {

	info := &core.JobInfo{
		ID:        spec.ID,
		WorkerRes: spec.Model.WorkerRes,
		PSRes:     spec.Model.PSRes,
	}
	if spec.Mode == speedfit.Sync {
		info.MaxWorkers = spec.Model.GlobalBatch // m = M/w must stay ≥ 1
	}
	totalEst := EstimatedEpochs(fit, spec.Threshold, priorEpochs)
	remaining := totalEst - progress
	if remaining < 0.1 {
		remaining = 0.1
	}
	info.RemainingWork = remaining
	info.Speed = estimatedSpeed(c, spec, est)
	// Beginning-state priority damping (§4.1).
	if totalEst > 0 && progress/totalEst < 0.1 {
		info.Priority = priorityFactor
	}
	return info
}
