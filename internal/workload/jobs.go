package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"optimus/internal/speedfit"
)

// JobSpec is a training job as submitted to the cluster: a model, a training
// mode, a convergence threshold and an arrival time. The scheduler decides
// p and w; the owner only fixes per-task resource profiles (via the model).
type JobSpec struct {
	ID        int
	Model     *Model
	Mode      speedfit.Mode
	Threshold float64 // convergence threshold on normalized loss decrease/epoch
	Arrival   float64 // submission time, seconds from experiment start
	Downscale float64 // dataset downscale factor (§6.1), (0,1]
}

// String implements fmt.Stringer.
func (j JobSpec) String() string {
	return fmt.Sprintf("job%d(%s,%s,th=%.3f,t=%.0f)",
		j.ID, j.Model.Name, j.Mode, j.Threshold, j.Arrival)
}

// TotalEpochs is the ground-truth epochs to convergence for this job.
func (j JobSpec) TotalEpochs() float64 {
	return j.Model.EpochsToConverge(j.Threshold, 3)
}

// TotalSteps is the ground-truth total training steps for this job at the
// given worker count (async epochs shrink in steps as workers grow; the
// simulator re-evaluates as w changes).
func (j JobSpec) TotalSteps(w int) float64 {
	return j.TotalEpochs() * float64(j.Model.StepsPerEpoch(j.Mode, w, j.Downscale))
}

// GenConfig controls random workload generation, mirroring §6.1:
// "Job arrival happens randomly between [0,12000] seconds. Upon an arrival
// event, we randomly choose the job among the examples in Table 1 and decide
// to run it using asynchronous or synchronous training randomly. We vary the
// convergence threshold of jobs between 1% and 5%."
type GenConfig struct {
	N         int     // number of jobs
	Horizon   float64 // arrival window length in seconds (paper: 12000)
	Seed      int64
	Downscale float64        // dataset downscale (paper: "so one run ≈ 6h")
	ForceMode *speedfit.Mode // non-nil → all jobs use this mode (Fig 16)
	Arrivals  ArrivalProcess // default UniformArrivals
}

// Every generated job's convergence threshold lies in [minThreshold,
// maxThreshold) (§6.1). Typed float64, so Generate's maxThreshold −
// minThreshold rounds as a float64 subtraction, bit for bit as before.
const minThreshold, maxThreshold float64 = 0.01, 0.05

// ArrivalProcess generates n sorted arrival times within [0, horizon].
type ArrivalProcess func(r *rand.Rand, n int, horizon float64) []float64

// UniformArrivals scatters arrivals uniformly at random over the window —
// the paper's default workload.
func UniformArrivals(r *rand.Rand, n int, horizon float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * horizon
	}
	sort.Float64s(out)
	return out
}

// PoissonArrivals produces a Poisson process ("3 arrivals per scheduling
// interval" in §6.3) scaled so n arrivals fit the horizon in expectation.
// Inter-arrival gaps are exponential; the sequence is truncated/extended to
// exactly n events, the last ones clamped to the horizon.
func PoissonArrivals(r *rand.Rand, n int, horizon float64) []float64 {
	if n <= 0 {
		return nil
	}
	rate := float64(n) / horizon
	out := make([]float64, 0, n)
	t := 0.0
	for len(out) < n {
		t += r.ExpFloat64() / rate
		if t > horizon {
			t = horizon
		}
		out = append(out, t)
	}
	return out
}

// GoogleTraceArrivals emulates the bursty pattern of the Google cluster
// trace excerpt the paper uses (§6.3: "many job arrival spikes"): most jobs
// arrive inside a handful of short spikes, with a trickle in between.
func GoogleTraceArrivals(r *rand.Rand, n int, horizon float64) []float64 {
	if n <= 0 {
		return nil
	}
	nSpikes := 3 + r.Intn(3)
	centers := make([]float64, nSpikes)
	for i := range centers {
		centers[i] = r.Float64() * horizon
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if r.Float64() < 0.8 { // 80% of arrivals land inside spikes
			c := centers[r.Intn(nSpikes)]
			t := c + r.NormFloat64()*horizon*0.01
			if t < 0 {
				t = 0
			}
			if t > horizon {
				t = horizon
			}
			out = append(out, t)
		} else {
			out = append(out, r.Float64()*horizon)
		}
	}
	sort.Float64s(out)
	return out
}

// Generate builds a random job mix per the configuration.
func Generate(cfg GenConfig) []JobSpec {
	if cfg.N <= 0 {
		return nil
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 12000
	}
	if cfg.Downscale <= 0 || cfg.Downscale > 1 {
		cfg.Downscale = 1
	}
	arrivalsFn := cfg.Arrivals
	if arrivalsFn == nil {
		arrivalsFn = UniformArrivals
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	zoo := Zoo()
	arrivals := arrivalsFn(r, cfg.N, cfg.Horizon)

	jobs := make([]JobSpec, cfg.N)
	for i := range jobs {
		mode := speedfit.Mode(r.Intn(2))
		if cfg.ForceMode != nil {
			mode = *cfg.ForceMode
		}
		jobs[i] = JobSpec{
			ID:        i,
			Model:     zoo[r.Intn(len(zoo))],
			Mode:      mode,
			Threshold: minThreshold + r.Float64()*(maxThreshold-minThreshold),
			Arrival:   arrivals[i],
			Downscale: cfg.Downscale,
		}
	}
	return jobs
}
