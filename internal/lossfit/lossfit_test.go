package lossfit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth generates points from a known curve with optional noise.
func synth(b0, b1, b2 float64, n int, noise float64, seed int64) []Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		k := float64(i + 1)
		l := 1/(b0*k+b1) + b2
		l += noise * r.NormFloat64()
		if l < 1e-6 {
			l = 1e-6
		}
		pts[i] = Point{K: k, Loss: l}
	}
	return pts
}

func TestFitRecoversNoiselessCurve(t *testing.T) {
	// Seq2Seq-like coefficients from Fig. 7: β0=0.21, β1=1.07, β2=0.07.
	pts := synth(0.21, 1.07, 0.07, 60, 0, 1)
	m, err := FitPoints(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The preprocessing normalizes by max loss; predicted curve should match
	// the input data closely in normalized space.
	if m.Residual > 1e-3 {
		t.Errorf("residual = %g, want < 1e-3", m.Residual)
	}
	// Check pointwise agreement against the raw curve.
	for _, k := range []float64{5, 20, 50} {
		want := 1/(0.21*k+1.07) + 0.07
		got := m.RawLoss(k)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("RawLoss(%g) = %g, want ≈ %g", k, got, want)
		}
	}
}

func TestFitWithNoise(t *testing.T) {
	pts := synth(0.05, 1.0, 0.1, 200, 0.01, 2)
	m, err := FitPoints(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{50, 100, 150} {
		want := 1/(0.05*k+1.0) + 0.1
		got := m.RawLoss(k)
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("RawLoss(%g) = %g, want ≈ %g (±10%%)", k, got, want)
		}
	}
}

func TestFitTooFewPoints(t *testing.T) {
	if _, err := FitPoints(synth(0.2, 1, 0, 3, 0, 1), 5); err == nil {
		t.Error("expected error for 3 points")
	}
}

func TestFitterAddValidation(t *testing.T) {
	f := NewFitter()
	if err := f.Add(0, 1); err == nil {
		t.Error("expected error for step 0")
	}
	if err := f.Add(-1, 1); err == nil {
		t.Error("expected error for negative step")
	}
	if err := f.Add(1, math.NaN()); err == nil {
		t.Error("expected error for NaN loss")
	}
	if err := f.Add(math.Inf(1), 1); err == nil {
		t.Error("expected error for infinite step")
	}
	if err := f.Add(1, 0.5); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
}

func TestFitterCompaction(t *testing.T) {
	f := NewFitter()
	f.MaxPoints = 16
	for i := 1; i <= 100; i++ {
		if err := f.Add(float64(i), 1/float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() > 16 {
		t.Errorf("Len = %d, want ≤ 16 after compaction", f.Len())
	}
	// Compacted data should still fit well.
	m, err := f.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid() {
		t.Error("model invalid after compaction")
	}
}

func TestPreprocessOutlierRemoval(t *testing.T) {
	pts := synth(0.2, 1, 0.05, 30, 0, 3)
	// Inject a wild spike in the middle.
	spiked := make([]Point, len(pts))
	copy(spiked, pts)
	spiked[15].Loss = 100
	cleaned, _ := Preprocess(spiked, 5)
	// The spike must have been replaced by the neighbour average, so after
	// normalization the max should be at the first point, not index 15.
	if cleaned[15].Loss > cleaned[0].Loss {
		t.Errorf("outlier survived: cleaned[15]=%g > cleaned[0]=%g",
			cleaned[15].Loss, cleaned[0].Loss)
	}
}

func TestPreprocessNormalization(t *testing.T) {
	pts := []Point{{1, 8}, {2, 4}, {3, 2}, {4, 1}}
	cleaned, maxLoss := Preprocess(pts, 0)
	if maxLoss != 8 {
		t.Errorf("maxLoss = %g, want 8", maxLoss)
	}
	for _, p := range cleaned {
		if p.Loss < 0 || p.Loss > 1 {
			t.Errorf("normalized loss %g outside [0,1]", p.Loss)
		}
	}
}

func TestPreprocessEmpty(t *testing.T) {
	cleaned, maxLoss := Preprocess(nil, 5)
	if cleaned != nil || maxLoss != 0 {
		t.Errorf("Preprocess(nil) = %v, %g; want nil, 0", cleaned, maxLoss)
	}
}

func TestStepsToConverge(t *testing.T) {
	m := Model{B0: 0.01, B1: 1, B2: 0.05, MaxLoss: 1}
	steps, err := m.StepsToConverge(0.001, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if steps <= 0 {
		t.Fatalf("steps = %g, want > 0", steps)
	}
	// At the reported point, the per-window decrease must be below threshold.
	w := 100.0
	if d := m.Loss(steps) - m.Loss(steps+w); d >= 0.001 {
		t.Errorf("decrease at k*=%g is %g, want < 0.001", steps, d)
	}
	// Tighter thresholds require more steps.
	tight, err := m.StepsToConverge(0.0001, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tight <= steps {
		t.Errorf("tighter threshold gave %g steps, want > %g", tight, steps)
	}
}

func TestStepsToConvergeErrors(t *testing.T) {
	var zero Model
	if _, err := zero.StepsToConverge(0.01, 10, 3); err == nil {
		t.Error("expected error for unfitted model")
	}
	m := Model{B0: 0.01, B1: 1, MaxLoss: 1}
	if _, err := m.StepsToConverge(0, 10, 3); err == nil {
		t.Error("expected error for zero threshold")
	}
	if _, err := m.StepsToConverge(0.01, 0, 3); err == nil {
		t.Error("expected error for zero window")
	}
	if _, err := m.StepsToConverge(0.01, 10, 0); err == nil {
		t.Error("expected error for zero consecutive")
	}
}

func TestModelLossMonotone(t *testing.T) {
	m := Model{B0: 0.1, B1: 1, B2: 0.02, MaxLoss: 1}
	prev := math.Inf(1)
	for k := 1.0; k < 1000; k *= 1.5 {
		l := m.Loss(k)
		if l > prev {
			t.Fatalf("loss increased at k=%g: %g > %g", k, l, prev)
		}
		prev = l
	}
}

// Property: the fitted model is always valid and its predicted losses are
// within the data's range for curves from the model family.
func TestFitProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b0 := 0.01 + r.Float64()*0.5
		b1 := 0.5 + r.Float64()*2
		b2 := r.Float64() * 0.3
		pts := synth(b0, b1, b2, 40+r.Intn(100), 0.002, seed)
		m, err := FitPoints(pts, 5)
		if err != nil {
			return false
		}
		if !m.Valid() {
			return false
		}
		// Prediction at a seen step should be close to truth.
		k := float64(20)
		want := 1/(b0*k+b1) + b2
		got := m.RawLoss(k)
		return math.Abs(got-want)/want < 0.2
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: prediction improves (or stays comparable) with more data — the
// paper's Fig. 6 claim. We check that the error with 80% of samples is not
// wildly worse than with 20%.
func TestFitImprovesWithData(t *testing.T) {
	pts := synth(0.05, 1.2, 0.08, 300, 0.005, 77)
	errAt := func(frac float64) float64 {
		n := int(frac * float64(len(pts)))
		m, err := FitPoints(pts[:n], 5)
		if err != nil {
			t.Fatalf("fit at %g%%: %v", frac*100, err)
		}
		trueSteps := convergencePoint(0.05, 1.2, 0.08, 0.0005, 10)
		got, err := m.StepsToConverge(0.0005, 10, 3)
		if err != nil {
			return math.Inf(1)
		}
		return math.Abs(got-trueSteps) / trueSteps
	}
	early, late := errAt(0.2), errAt(0.8)
	if late > early*2+0.2 {
		t.Errorf("late error %.3f much worse than early %.3f", late, early)
	}
}

// convergencePoint computes the true step at which the per-window decrease
// falls below threshold for the exact curve.
func convergencePoint(b0, b1, b2, threshold float64, window int) float64 {
	loss := func(k float64) float64 { return 1/(b0*k+b1) + b2 }
	w := float64(window)
	k := 1.0
	for loss(k)-loss(k+w) >= threshold {
		k++
		if k > 1e9 {
			return math.Inf(1)
		}
	}
	return k
}

// TestFitCacheMatchesRefit is the dirty-flag contract: a Fitter's cached Fit
// must be indistinguishable from refitting the accumulated points from
// scratch, at every point in the Add/Fit interleaving.
func TestFitCacheMatchesRefit(t *testing.T) {
	pts := synth(0.2, 1.0, 0.06, 60, 0.01, 9)
	f := NewFitter()
	for i, p := range pts {
		if err := f.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
		if i < 4 || i%7 != 0 {
			continue
		}
		got, gotErr := f.Fit()
		// Repeat without new data: must hit the cache and return the same.
		again, againErr := f.Fit()
		if got != again || (gotErr == nil) != (againErr == nil) {
			t.Fatalf("point %d: cached refit diverged: %+v vs %+v", i, got, again)
		}
		want, wantErr := FitPoints(pts[:i+1], f.OutlierWindow)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("point %d: err %v vs fresh err %v", i, gotErr, wantErr)
		}
		if gotErr == nil && got != want {
			t.Fatalf("point %d: cached fit %+v != fresh fit %+v", i, got, want)
		}
	}
}

// Changing the preprocessing window must invalidate the cache.
func TestFitCacheInvalidatedByWindowChange(t *testing.T) {
	pts := synth(0.15, 1.1, 0.05, 40, 0.02, 10)
	f := NewFitter()
	for _, p := range pts {
		if err := f.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Fit(); err != nil {
		t.Fatal(err)
	}
	f.OutlierWindow = 0
	got, err := f.Fit()
	if err != nil {
		t.Fatal(err)
	}
	want, err := FitPoints(pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after window change: cached %+v != fresh %+v", got, want)
	}
}

// TestPointsRoundTrip checks that a fitter that has compacted past
// MaxPoints is rebuilt exactly by adding its Points to a fresh fitter: the
// same Fit bits, and the same bits again after both take more samples and
// compact once more.
func TestPointsRoundTrip(t *testing.T) {
	pts := synth(0.02, 1.0, 0.05, 6000, 0.01, 11)
	f := NewFitter()
	f.MaxPoints = 1000
	for i, p := range pts[:2500] {
		if err := f.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			_, _ = f.Fit() // the original refits incrementally along the way
		}
	}
	if f.Len() >= 2500 {
		t.Fatalf("precondition: %d samples retained, want a compacted fitter", f.Len())
	}
	saved := f.Points()
	if len(saved) != f.Len() {
		t.Fatalf("Points() returned %d samples, Len() = %d", len(saved), f.Len())
	}
	g := NewFitter()
	g.MaxPoints = f.MaxPoints
	for _, p := range saved {
		if err := g.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
	}
	sameFit := func(stage string) {
		t.Helper()
		want, wantErr := f.Fit()
		got, gotErr := g.Fit()
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: fit errors %v, %v", stage, wantErr, gotErr)
		}
		w := [...]float64{want.B0, want.B1, want.B2, want.MaxLoss, want.Residual}
		r := [...]float64{got.B0, got.B1, got.B2, got.MaxLoss, got.Residual}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(r[i]) {
				t.Fatalf("%s: rebuilt fit %+v, original %+v", stage, got, want)
			}
		}
	}
	sameFit("after round trip")
	saved[0].Loss = -1 // the copy is the caller's
	if f.Points()[0].Loss == -1 {
		t.Fatal("Points() aliases the fitter's samples")
	}
	n := f.Len()
	for _, p := range pts[2500:] {
		if err := f.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
		if err := g.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != g.Len() || f.Len() >= n+3500 {
		t.Fatalf("after more samples: %d and %d retained from %d, want one more compaction", f.Len(), g.Len(), n)
	}
	sameFit("after a further compaction")
}
