// Package lossfit implements the online convergence estimation of Optimus
// (§3.1 of the paper). Training-loss samples are preprocessed (outlier
// removal against a neighbour window, normalization by the maximum observed
// loss) and fitted to the SGD convergence model
//
//	l(k) = 1/(β0·k + β1) + β2,   β0, β1, β2 ≥ 0
//
// where k is the training step (or epoch). The fitted model predicts the
// total number of steps needed until the per-epoch loss decrease stays below
// the job owner's convergence threshold, and hence the remaining work Q_j
// the scheduler plugs into its completion-time objective.
package lossfit

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/nnls"
)

// Point is one training-loss observation at step K.
type Point struct {
	K    float64 // training step (or epoch) index, > 0
	Loss float64 // raw training loss at that step
}

// Model is the fitted convergence curve l(k) = 1/(β0·k+β1) + β2 on the
// normalized loss scale (losses divided by MaxLoss).
type Model struct {
	B0, B1, B2 float64
	// MaxLoss is the normalization constant: raw losses were divided by it
	// before fitting. Loss() reports normalized values; RawLoss() rescales.
	MaxLoss float64
	// Residual is the root-mean-square error of the fit in normalized space.
	Residual float64
}

// Loss evaluates the normalized fitted curve at step k.
func (m Model) Loss(k float64) float64 {
	den := m.B0*k + m.B1
	if den <= 0 {
		return 1 + m.B2
	}
	return 1/den + m.B2
}

// RawLoss evaluates the fitted curve in raw-loss units.
func (m Model) RawLoss(k float64) float64 { return m.Loss(k) * m.MaxLoss }

// Valid reports whether the model can make forward progress predictions.
func (m Model) Valid() bool {
	return m.B0 > 0 && !math.IsNaN(m.B0) && !math.IsNaN(m.B1) && !math.IsNaN(m.B2)
}

// StepsToConverge returns the first step k* at which the model's loss
// decrease over each of `consecutive` consecutive windows of `window` steps
// stays below threshold (on the normalized loss scale). window is typically
// the number of steps per epoch, matching the paper's epoch-granularity
// convergence rule. It returns an error if the model cannot converge.
func (m Model) StepsToConverge(threshold float64, window, consecutive int) (float64, error) {
	if !m.Valid() {
		return 0, errors.New("lossfit: model not fitted")
	}
	if threshold <= 0 {
		return 0, fmt.Errorf("lossfit: threshold must be positive, got %g", threshold)
	}
	if window <= 0 || consecutive <= 0 {
		return 0, errors.New("lossfit: window and consecutive must be positive")
	}
	// The per-window decrease d(k) = l(k) − l(k+window) is monotonically
	// decreasing in k for this model family, so the convergence point is the
	// first k where d(k) < threshold; the "consecutive" windows after it
	// automatically satisfy the condition. Solve d(k) = threshold in closed
	// form is messy; a doubling+bisection search is exact enough and cheap.
	wf := float64(window)
	decrease := func(k float64) float64 { return m.Loss(k) - m.Loss(k+wf) }

	if decrease(1) < threshold {
		return wf * float64(consecutive), nil // converged almost immediately
	}
	lo, hi := 1.0, 2.0
	for decrease(hi) >= threshold {
		hi *= 2
		if hi > 1e12 {
			return 0, errors.New("lossfit: model does not converge under threshold")
		}
	}
	for i := 0; i < 200 && hi-lo > 0.5; i++ {
		mid := (lo + hi) / 2
		if decrease(mid) >= threshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Converged when the condition has held for `consecutive` windows.
	return hi + wf*float64(consecutive), nil
}

// Fitter accumulates loss observations and produces Models on demand. It is
// the online half of §3.1: call Add after every step (or once per epoch with
// averaged losses, per the paper's sampling note) and Fit whenever the
// scheduler needs a fresh convergence estimate.
type Fitter struct {
	points []Point
	// OutlierWindow is the neighbour half-window used in preprocessing
	// (paper example: min of the next 5 and max of the previous 5 samples).
	OutlierWindow int
	// MaxPoints caps the number of retained samples; when exceeded, pairs of
	// adjacent samples are averaged (the paper's "average several data
	// points" reduction). Zero means unlimited.
	MaxPoints int

	// Fit cache: FitPoints is pure in (points, OutlierWindow), so the result
	// only changes when Add appends a sample (or the window setting moves).
	// The scheduler refits every active job every interval; between epoch
	// boundaries nothing new arrives, so the cached model is exact.
	dirty        bool
	fitted       bool
	cachedWindow int
	cached       Model
	cachedErr    error
	gen          uint64 // bumped by Add; see Generation
	// rewrote is set when compact rewrote the samples since the last Fit, so
	// the scratch's preprocessed prefix no longer matches them.
	rewrote bool

	// scratch holds the NNLS workspace and preprocessing buffers reused
	// across refits; allocated on first Fit.
	scratch *fitScratch
}

// fitScratch bundles every buffer one FitPoints evaluation needs. A Fitter
// keeps one across refits so the steady-state "one new point then refit"
// cycle allocates nothing, warm-starts NNLS from the previous active set and
// preprocesses only the samples the new point can change.
type fitScratch struct {
	ws  nnls.Workspace
	mat nnls.Matrix
	rhs []float64

	// The last preprocess: n samples under window, their filtered losses
	// (raw), the running max of raw from 0 up (runMax), the normalization
	// constant and the normalized samples.
	n, window int
	raw       []float64
	runMax    []float64
	maxLoss   float64
	cleaned   []Point
}

// NewFitter returns a Fitter with the paper's default preprocessing window.
func NewFitter() *Fitter {
	return &Fitter{OutlierWindow: 5, MaxPoints: 4096}
}

// Add records one loss observation. Non-finite or non-positive steps are
// rejected so callers can feed raw telemetry without pre-validating.
func (f *Fitter) Add(k, loss float64) error {
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("lossfit: invalid step %g", k)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("lossfit: invalid loss %g", loss)
	}
	f.points = append(f.points, Point{K: k, Loss: loss})
	if f.MaxPoints > 0 && len(f.points) > f.MaxPoints {
		f.compact()
	}
	f.dirty = true
	f.gen++
	return nil
}

// Generation is a change-tracking stamp: it is always non-zero and advances
// exactly when an accepted Add changes the sample set (and therefore possibly
// the fitted model). Equal generations guarantee Fit returns the same model,
// given unchanged settings.
func (f *Fitter) Generation() uint64 { return f.gen + 1 }

// Len reports the number of retained samples.
func (f *Fitter) Len() int { return len(f.points) }

// Points returns a copy of the retained samples, compacted ones included.
// Adding them in order to a fresh Fitter with the same settings rebuilds
// this one: the same samples, so the same Fit.
func (f *Fitter) Points() []Point { return slices.Clone(f.points) }

// compact halves the sample count by averaging adjacent pairs.
func (f *Fitter) compact() {
	out := f.points[:0]
	for i := 0; i+1 < len(f.points); i += 2 {
		a, b := f.points[i], f.points[i+1]
		out = append(out, Point{K: (a.K + b.K) / 2, Loss: (a.Loss + b.Loss) / 2})
	}
	if len(f.points)%2 == 1 {
		out = append(out, f.points[len(f.points)-1])
	}
	f.points = out
	f.rewrote = true
}

// Preprocess applies the paper's outlier removal and normalization and
// returns the cleaned (k, normalized loss) series plus the normalization
// constant. It is exported for tests and for the experiment harness; the
// returned slice is caller-owned.
func Preprocess(points []Point, window int) ([]Point, float64) {
	var s fitScratch
	return s.preprocess(points, window)
}

// Fit fits the convergence model to the samples collected so far. At least
// four samples are required. Results are cached until the next Add (or an
// OutlierWindow change), so repeated scheduler refits without new
// observations cost a field read instead of a grid of NNLS solves.
func (f *Fitter) Fit() (Model, error) {
	if f.fresh() {
		return f.cached, f.cachedErr
	}
	if f.scratch == nil {
		f.scratch = new(fitScratch)
	}
	f.cached, f.cachedErr = f.scratch.fit(f.points, f.OutlierWindow, !f.rewrote)
	f.fitted, f.dirty, f.cachedWindow, f.rewrote = true, false, f.OutlierWindow, false
	return f.cached, f.cachedErr
}

// fresh reports whether the cached fit is exact, i.e. Fit is a cache read.
func (f *Fitter) fresh() bool {
	return f.fitted && !f.dirty && f.cachedWindow == f.OutlierWindow
}

// FitAll runs Fit on every stale fitter in fs over min(GOMAXPROCS, stale)
// goroutines, the caller's included; afterwards Fit on any of them is a
// cache read. A refit touches only its own fitter (samples, cache, NNLS warm
// start), so each ends bit for bit as a serial Fit would leave it. The
// fitters must be distinct, and the caller must own all of them for the
// whole call. observe gets each refit's wall-clock seconds, from several
// goroutines at once.
func FitAll(fs []*Fitter, observe func(seconds float64)) {
	stale := 0
	for _, f := range fs {
		if !f.fresh() {
			stale++
		}
	}
	if stale == 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(fs)); i = next.Add(1) - 1 {
			if f := fs[i]; !f.fresh() {
				start := time.Now()
				_, _ = f.Fit()
				observe(time.Since(start).Seconds())
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), stale) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// FitPoints fits the model to an explicit sample set.
//
// The model is nonlinear in β, but for a fixed asymptote β2 the substitution
// u = 1/(l − β2) turns it into the linear model u = β0·k + β1 solvable with
// NNLS. We search β2 over a grid below the smallest observed loss, solve the
// linear subproblem for each candidate, and keep the fit with the smallest
// residual measured in the original loss space. This mirrors the paper's
// NNLS-based fitting while staying dependency-free and deterministic.
func FitPoints(points []Point, window int) (Model, error) {
	var s fitScratch
	return s.fitPoints(points, window)
}

// fitPoints is FitPoints running on a reusable scratch.
func (s *fitScratch) fitPoints(points []Point, window int) (Model, error) {
	return s.fit(points, window, false)
}

// fit is fitPoints, preprocessing incrementally when appended is set (see
// update).
func (s *fitScratch) fit(points []Point, window int, appended bool) (Model, error) {
	if len(points) < 4 {
		s.n = 0 // the samples go unprocessed: the next call starts over
		return Model{}, fmt.Errorf("lossfit: need at least 4 points, have %d", len(points))
	}
	cleaned, maxLoss := s.update(points, window, appended)

	minLoss := math.Inf(1)
	for _, p := range cleaned {
		if p.Loss < minLoss {
			minLoss = p.Loss
		}
	}

	best := Model{Residual: math.Inf(1), MaxLoss: maxLoss}
	s.mat.Rows = -1 // stale design matrix: the first candidate rebuilds it
	const gridSteps = 40
	for g := 0; g <= gridSteps; g++ {
		b2 := minLoss * float64(g) / float64(gridSteps+1)
		m, ok := s.fitWithAsymptote(cleaned, b2, best.Residual)
		if !ok {
			continue
		}
		if m.Residual < best.Residual {
			best = m
			best.MaxLoss = maxLoss
		}
	}
	if math.IsInf(best.Residual, 1) {
		return Model{}, errors.New("lossfit: fitting failed for all asymptote candidates")
	}
	return best, nil
}

// preprocess is Preprocess writing into the scratch buffers. The returned
// slice is owned by the scratch and valid until the next call.
func (s *fitScratch) preprocess(points []Point, window int) ([]Point, float64) {
	return s.update(points, window, false)
}

// update is preprocess redoing only what changed since its last call. When
// appended is set, the caller vouches that points extends, unchanged, the
// samples the last call saw. A sample's filtered loss reads its neighbours
// up to window away, so only the last window of the old samples and the new
// ones are filtered again; the normalization is redone over every sample only
// when the new maximum differs from the old in any bit. Each value is
// computed by the same operations as a full pass, so the result is the same
// bits. A window change, or appended unset, runs the full pass.
func (s *fitScratch) update(points []Point, window int, appended bool) ([]Point, float64) {
	n := len(points)
	if n == 0 {
		s.n = 0
		return nil, 0
	}
	from := 0
	if appended && window == s.window && s.n <= n {
		from = max(0, s.n-max(window, 0))
	}
	if cap(s.raw) < n {
		// Grow geometrically: a refit usually sees one more sample.
		c := max(n, 2*cap(s.raw))
		s.raw = append(make([]float64, 0, c), s.raw[:from]...)
		s.runMax = append(make([]float64, 0, c), s.runMax[:from]...)
		s.cleaned = append(make([]Point, 0, c), s.cleaned[:from]...)
	}
	raw, runMax, cleaned := s.raw[:n], s.runMax[:n], s.cleaned[:n]
	for i := from; i < n; i++ {
		raw[i] = filtered(points, i, window)
	}

	// The running max starts at 0, so the max is never negative.
	var maxLoss float64
	if from > 0 {
		maxLoss = runMax[from-1]
	}
	for i := from; i < n; i++ {
		if raw[i] > maxLoss {
			maxLoss = raw[i]
		}
		runMax[i] = maxLoss
	}
	if maxLoss <= 0 {
		maxLoss = 1
	}
	if from > 0 && math.Float64bits(maxLoss) != math.Float64bits(s.maxLoss) {
		from = 0
	}
	for i := from; i < n; i++ {
		cleaned[i] = Point{K: points[i].K, Loss: raw[i] / maxLoss}
	}
	s.raw, s.runMax, s.cleaned = raw, runMax, cleaned
	s.n, s.window, s.maxLoss = n, window, maxLoss
	return cleaned, maxLoss
}

// filtered is sample i's loss after the paper's outlier removal: it must
// fall within [min of the next window losses, max of the previous window
// losses]; otherwise it is replaced by the mean of its immediate neighbours.
func filtered(points []Point, i, window int) float64 {
	if window <= 0 {
		return points[i].Loss
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for j := i + 1; j <= i+window && j < len(points); j++ {
		if points[j].Loss < lo {
			lo = points[j].Loss
		}
	}
	for j := i - 1; j >= 0 && j >= i-window; j-- {
		if points[j].Loss > hi {
			hi = points[j].Loss
		}
	}
	if math.IsInf(lo, 1) || math.IsInf(hi, -1) {
		return points[i].Loss // boundary points keep their value
	}
	if points[i].Loss >= lo && points[i].Loss <= hi {
		return points[i].Loss
	}
	var sum float64
	var n int
	if i > 0 {
		sum += points[i-1].Loss
		n++
	}
	if i+1 < len(points) {
		sum += points[i+1].Loss
		n++
	}
	if n > 0 {
		return sum / float64(n)
	}
	return points[i].Loss
}

// fitWithAsymptote solves the linear subproblem for a fixed β2 and evaluates
// the residual in loss space. The design matrix and rhs are assembled in the
// scratch buffers and solved with the scratch workspace, which warm-starts
// from the previous candidate's (or previous refit's) active set and reuses
// the design matrix's QR factors across candidates.
//
// best is the smallest residual found so far. The residual sum stops, and
// the candidate is reported not ok, once sqrt(partial/n) ≥ best: the terms
// are non-negative, so under round-to-nearest the full sum is no smaller and
// the candidate cannot pass fitPoints' strict <. Nothing reads a losing
// candidate, and its solve has already updated the warm start.
//
// Only the rhs depends on β2 once the kept rows are fixed, so the design
// matrix [k, 1] is rebuilt only when the kept-row count changes. The count
// identifies the set: fitPoints' β2 grid is monotone (rounding is monotone),
// so each candidate's kept rows are a subset or superset of the previous
// candidate's, and a chain of sets with equal sizes is one set. The solve is
// told when the matrix was rebuilt, so the other candidates skip comparing
// it with the workspace's factor cache key.
func (s *fitScratch) fitWithAsymptote(cleaned []Point, b2, best float64) (Model, bool) {
	rhs := s.rhs[:0]
	for _, p := range cleaned {
		d := p.Loss - b2
		if d <= 1e-9 {
			continue // point at/below asymptote: cannot transform
		}
		rhs = append(rhs, 1/d)
	}
	s.rhs = rhs
	if len(rhs) < 3 {
		return Model{}, false
	}
	rebuilt := s.mat.Rows != len(rhs)
	if rebuilt {
		data := s.mat.Data[:0]
		for _, p := range cleaned {
			if p.Loss-b2 > 1e-9 {
				data = append(data, p.K, 1)
			}
		}
		s.mat.Data, s.mat.Rows, s.mat.Cols = data, len(rhs), 2
	}
	x, err := s.ws.CoefTracked(&s.mat, rhs, rebuilt)
	if err != nil {
		return Model{}, false
	}
	m := Model{B0: x[0], B1: x[1], B2: b2}
	if m.B0 <= 0 {
		return Model{}, false // flat model: no convergence information
	}
	// Residual in the original (normalized) loss space.
	n := float64(len(cleaned))
	var ss float64
	for lo := 0; lo < len(cleaned); lo += 32 {
		for _, p := range cleaned[lo:min(lo+32, len(cleaned))] {
			d := m.Loss(p.K) - p.Loss
			ss += d * d
		}
		if math.Sqrt(ss/n) >= best {
			return Model{}, false
		}
	}
	m.Residual = math.Sqrt(ss / n)
	return m, true
}
