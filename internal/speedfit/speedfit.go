// Package speedfit implements the resource→training-speed models of Optimus
// (§3.2 of the paper). A job's training speed f(p, w) — steps completed per
// second with p parameter servers and w workers — is modeled as
//
//	async: f(p,w) = w · (θ0 + θ1·w/p + θ2·w + θ3·p)⁻¹        (Eqn 3)
//	sync:  f(p,w) = (θ0·M/w + θ1 + θ2·w/p + θ3·w + θ4·p)⁻¹   (Eqn 4)
//
// with non-negative θ. Both are linear in θ after transforming the response
// (w/f for async, 1/f for sync), so fitting reduces to NNLS — exactly the
// solver the paper uses. Coefficients are learned from a handful of sample
// runs before the job starts and recalibrated online as real (p, w, speed)
// observations arrive.
package speedfit

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"optimus/internal/nnls"
)

// Mode distinguishes the two training regimes of the parameter-server
// architecture (§2.2).
type Mode int

const (
	// Async: workers proceed at their own pace; servers update per push.
	Async Mode = iota
	// Sync: all workers advance in lockstep; the global batch size M is
	// fixed and each worker processes M/w examples per step.
	Sync
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Async:
		return "async"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String: it accepts exactly "async" and
// "sync".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "async":
		return Async, nil
	case "sync":
		return Sync, nil
	}
	return 0, fmt.Errorf("speedfit: unknown mode %q", s)
}

// Sample is one observed training speed under a (p, w) configuration.
type Sample struct {
	P     int     // number of parameter servers, ≥ 1
	W     int     // number of workers, ≥ 1
	Speed float64 // steps per second, > 0
}

// Model is a fitted speed function.
type Model struct {
	Mode  Mode
	Theta []float64 // 4 coefficients for Async, 5 for Sync
	M     float64   // global batch size (Sync only)
	// Residual is the NNLS residual in the transformed (inverse-speed)
	// space, reported like the paper's "residual sum of squares" in Table 2.
	Residual float64
}

// Valid reports whether the model has been fitted.
func (m Model) Valid() bool { return len(m.Theta) > 0 }

// Speed predicts the training speed for a configuration. Non-positive p or w
// yields zero: a job with no workers or no servers makes no progress.
func (m Model) Speed(p, w int) float64 {
	if p <= 0 || w <= 0 || !m.Valid() {
		return 0
	}
	pf, wf := float64(p), float64(w)
	switch m.Mode {
	case Async:
		t := m.Theta
		den := t[0] + t[1]*wf/pf + t[2]*wf + t[3]*pf
		if den <= 0 {
			return 0
		}
		return wf / den
	case Sync:
		t := m.Theta
		den := t[0]*m.M/wf + t[1] + t[2]*wf/pf + t[3]*wf + t[4]*pf
		if den <= 0 {
			return 0
		}
		return 1 / den
	default:
		return 0
	}
}

// Fit learns a speed model from samples. For Sync mode, batchSize M must be
// positive; it is ignored for Async. At least numCoefficients+1 distinct
// samples are required.
func Fit(mode Mode, samples []Sample, batchSize float64) (Model, error) {
	var s fitScratch
	return s.fit(mode, samples, batchSize)
}

// fitScratch bundles the design matrix, right-hand side, and NNLS workspace
// one Fit needs, so an Estimator's periodic refits reuse the buffers and
// warm-start the solver from the previous refit's active set.
type fitScratch struct {
	ws  nnls.Workspace
	mat nnls.Matrix
	rhs []float64
}

// fit is Fit running on a reusable scratch.
func (s *fitScratch) fit(mode Mode, samples []Sample, batchSize float64) (Model, error) {
	ncoef := 4
	if mode == Sync {
		ncoef = 5
		if batchSize <= 0 {
			return Model{}, errors.New("speedfit: sync fitting requires a positive batch size")
		}
	}
	data := s.mat.Data[:0]
	rhs := s.rhs[:0]
	for _, smp := range samples {
		if smp.P <= 0 || smp.W <= 0 || smp.Speed <= 0 ||
			math.IsNaN(smp.Speed) || math.IsInf(smp.Speed, 0) {
			continue
		}
		pf, wf := float64(smp.P), float64(smp.W)
		switch mode {
		case Async:
			// w/f = θ0 + θ1·w/p + θ2·w + θ3·p
			data = append(data, 1, wf/pf, wf, pf)
			rhs = append(rhs, wf/smp.Speed)
		case Sync:
			// 1/f = θ0·M/w + θ1 + θ2·w/p + θ3·w + θ4·p
			data = append(data, batchSize/wf, 1, wf/pf, wf, pf)
			rhs = append(rhs, 1/smp.Speed)
		}
	}
	s.mat.Data, s.rhs = data, rhs
	s.mat.Rows, s.mat.Cols = len(rhs), ncoef
	// An exactly-determined system is acceptable: the paper initializes the
	// sync model (5 coefficients) from exactly 5 pre-run samples.
	if s.mat.Rows < ncoef {
		return Model{}, fmt.Errorf("speedfit: need at least %d valid samples, have %d",
			ncoef, s.mat.Rows)
	}
	theta, res, err := s.ws.Solve(&s.mat, rhs)
	if err != nil {
		return Model{}, fmt.Errorf("speedfit: NNLS failed: %w", err)
	}
	// The workspace owns theta; Model retains Theta, so copy it out.
	m := Model{Mode: mode, Theta: append([]float64(nil), theta...), M: batchSize, Residual: res * res}
	if m.Speed(1, 1) <= 0 {
		return Model{}, errors.New("speedfit: degenerate fit (zero speed at p=w=1)")
	}
	return m, nil
}

// Estimator accumulates speed observations for one job and refits on demand,
// the online half of §3.2. It deduplicates by configuration, keeping a
// running mean per (p, w) so noisy repeated observations average out. The
// accumulators are kept ordered by (p, w), so a refit reads them in order
// without sorting.
//
// Decay, when set in (0, 1), turns the mean into an exponentially weighted
// one: each new observation of a configuration scales the old estimate by
// Decay. Runtime conditions drift — "job training speed is further
// influenced by many runtime factors, such as available bandwidth at the
// time" (§2.3) — so recent measurements should dominate stale ones.
type Estimator struct {
	Mode      Mode
	BatchSize float64
	Decay     float64

	acc []accum // ordered by (p, w)

	// Fit cache: the fit is a pure function of the accumulated averages, so
	// it only needs to re-run when Observe has changed them since the last
	// Fit (the scheduler refits every job every interval, but most jobs gain
	// no new configuration data between intervals).
	dirty     bool
	fitted    bool
	cached    Model
	cachedErr error

	// scratch holds the sample buffer and NNLS workspace reused
	// across refits; allocated on first Fit.
	scratch *estScratch
}

type estScratch struct {
	samples []Sample
	fit     fitScratch
}

// accum is one configuration's running sums.
type accum struct {
	p, w int
	sum  float64
	n    float64
}

// NewEstimator creates an estimator for the given training mode. batchSize
// is required for Sync jobs.
func NewEstimator(mode Mode, batchSize float64) *Estimator {
	return &Estimator{Mode: mode, BatchSize: batchSize}
}

// slot returns configuration (p, w)'s accumulator, inserting a zero one in
// order when it is new.
func (e *Estimator) slot(p, w int) *accum {
	lo, hi := 0, len(e.acc)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if a := &e.acc[h]; a.p < p || a.p == p && a.w < w {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo == len(e.acc) || e.acc[lo].p != p || e.acc[lo].w != w {
		e.acc = slices.Insert(e.acc, lo, accum{p: p, w: w})
	}
	return &e.acc[lo]
}

// Observe records one speed measurement for configuration (p, w).
func (e *Estimator) Observe(p, w int, speed float64) error {
	if p <= 0 || w <= 0 {
		return fmt.Errorf("speedfit: invalid configuration p=%d w=%d", p, w)
	}
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return fmt.Errorf("speedfit: invalid speed %g", speed)
	}
	a := e.slot(p, w)
	if e.Decay > 0 && e.Decay < 1 {
		a.sum = a.sum*e.Decay + speed
		a.n = a.n*e.Decay + 1
	} else {
		a.sum += speed
		a.n++
	}
	e.dirty = true
	return nil
}

// Configurations reports how many distinct (p, w) points have been observed.
func (e *Estimator) Configurations() int { return len(e.acc) }

// Samples returns the averaged per-configuration observations, ordered by
// (p, w). The order is deterministic on purpose: NNLS accumulates rows in
// floating point, so map-iteration order would leak run-to-run jitter into
// the fitted coefficients and break the simulator's reproducibility.
func (e *Estimator) Samples() []Sample {
	return e.samplesInto(make([]Sample, 0, len(e.acc)))
}

// Accum exports the raw per-configuration accumulators as (p, w, sum, n)
// rows ordered by (p, w). Unlike Samples, which collapses each configuration
// to its mean, the rows carry the observation weights, so an estimator
// rebuilt via SetAccum continues averaging exactly where this one left off —
// the property a durable snapshot needs for byte-identical refits.
func (e *Estimator) Accum() [][4]float64 {
	out := make([][4]float64, 0, len(e.acc))
	for _, a := range e.acc {
		out = append(out, [4]float64{float64(a.p), float64(a.w), a.sum, a.n})
	}
	return out
}

// SetAccum replaces the estimator's state with rows from Accum. Invalid rows
// (non-positive configuration or weight) are dropped; of two rows for one
// configuration, the later wins.
func (e *Estimator) SetAccum(rows [][4]float64) {
	e.acc = e.acc[:0]
	for _, r := range rows {
		p, w := int(r[0]), int(r[1])
		if p < 1 || w < 1 || r[3] <= 0 {
			continue
		}
		a := e.slot(p, w)
		a.sum, a.n = r[2], r[3]
	}
	e.dirty = true
	e.fitted = false
}

// samplesInto appends the averaged observations, ordered by (p, w), to dst
// (reusing its backing array).
func (e *Estimator) samplesInto(dst []Sample) []Sample {
	for _, a := range e.acc {
		dst = append(dst, Sample{P: a.p, W: a.w, Speed: a.sum / a.n})
	}
	return dst
}

// Fit produces a model from everything observed so far. The result is cached
// until the next Observe: re-fitting without new data always reproduces the
// same model, so the cache is exact, not approximate.
func (e *Estimator) Fit() (Model, error) {
	if e.fitted && !e.dirty {
		return e.cached, e.cachedErr
	}
	if e.scratch == nil {
		e.scratch = new(estScratch)
	}
	e.scratch.samples = e.samplesInto(e.scratch.samples[:0])
	e.cached, e.cachedErr = e.scratch.fit.fit(e.Mode, e.scratch.samples, e.BatchSize)
	e.fitted, e.dirty = true, false
	return e.cached, e.cachedErr
}

// SamplingPlan returns a small set of (p, w) configurations for the
// pre-run profiling phase (§3.2 "Model fitting": the paper finds 5–10 sample
// runs suffice for <10% error). Configurations are spread across the
// p:w space up to maxTasks total tasks per run.
func SamplingPlan(n, maxTasks int) [][2]int {
	if n <= 0 {
		return nil
	}
	if maxTasks < 2 {
		maxTasks = 2
	}
	// Cover ratios p:w in {1:4, 1:2, 1:1, 2:1} and a couple of scales.
	ratios := [][2]int{{1, 4}, {1, 2}, {1, 1}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2}}
	var plan [][2]int
	seen := make(map[[2]int]bool)
	scale := 1
	for len(plan) < n {
		for _, r := range ratios {
			p, w := r[0]*scale, r[1]*scale
			if p+w > maxTasks {
				continue
			}
			key := [2]int{p, w}
			if seen[key] {
				continue
			}
			seen[key] = true
			plan = append(plan, key)
			if len(plan) == n {
				return plan
			}
		}
		scale++
		if scale > maxTasks {
			break
		}
	}
	return plan
}
