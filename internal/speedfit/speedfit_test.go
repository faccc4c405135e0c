package speedfit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trueAsync evaluates Eqn 3 with known θ.
func trueAsync(th [4]float64, p, w int) float64 {
	pf, wf := float64(p), float64(w)
	return wf / (th[0] + th[1]*wf/pf + th[2]*wf + th[3]*pf)
}

// trueSync evaluates Eqn 4 with known θ and batch size M.
func trueSync(th [5]float64, m float64, p, w int) float64 {
	pf, wf := float64(p), float64(w)
	return 1 / (th[0]*m/wf + th[1] + th[2]*wf/pf + th[3]*wf + th[4]*pf)
}

func asyncSamples(th [4]float64, configs [][2]int, noise float64, seed int64) []Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]Sample, 0, len(configs))
	for _, c := range configs {
		s := trueAsync(th, c[0], c[1])
		s *= 1 + noise*r.NormFloat64()
		if s <= 0 {
			s = 1e-6
		}
		out = append(out, Sample{P: c[0], W: c[1], Speed: s})
	}
	return out
}

func grid(maxP, maxW int) [][2]int {
	var out [][2]int
	for p := 1; p <= maxP; p++ {
		for w := 1; w <= maxW; w++ {
			out = append(out, [2]int{p, w})
		}
	}
	return out
}

func TestFitAsyncRecoversSpeeds(t *testing.T) {
	// Paper Table 2 async coefficients: θ0=2.83, θ1=3.92, θ2=0.00, θ3=0.11.
	th := [4]float64{2.83, 3.92, 0.00, 0.11}
	samples := asyncSamples(th, grid(8, 8), 0, 1)
	m, err := Fit(Async, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 12; p++ {
		for w := 1; w <= 12; w++ {
			want := trueAsync(th, p, w)
			got := m.Speed(p, w)
			if math.Abs(got-want)/want > 0.01 {
				t.Fatalf("Speed(%d,%d) = %g, want %g", p, w, got, want)
			}
		}
	}
}

func TestFitSyncRecoversSpeeds(t *testing.T) {
	// Paper Table 2 sync coefficients: 1.02, 2.78, 4.92, 0.00, 0.02; pick a
	// batch size and rescale so speeds are O(0.1) like Fig 9.
	th := [5]float64{1.02, 2.78, 4.92, 0.001, 0.02}
	const M = 32
	var samples []Sample
	for _, c := range grid(6, 10) {
		samples = append(samples, Sample{P: c[0], W: c[1], Speed: trueSync(th, M, c[0], c[1])})
	}
	m, err := Fit(Sync, samples, M)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 8; p++ {
		for w := 1; w <= 12; w++ {
			want := trueSync(th, M, p, w)
			got := m.Speed(p, w)
			if math.Abs(got-want)/want > 0.01 {
				t.Fatalf("Speed(%d,%d) = %g, want %g", p, w, got, want)
			}
		}
	}
}

func TestFitSyncRequiresBatchSize(t *testing.T) {
	if _, err := Fit(Sync, nil, 0); err == nil {
		t.Error("expected error for zero batch size")
	}
}

func TestFitTooFewSamples(t *testing.T) {
	th := [4]float64{1, 1, 0.1, 0.1}
	samples := asyncSamples(th, [][2]int{{1, 1}, {2, 2}, {1, 2}}, 0, 1)
	if _, err := Fit(Async, samples, 0); err == nil {
		t.Error("expected error for too few samples")
	}
	// Exactly ncoef samples are allowed (the paper's 5-sample sync init).
	exact := asyncSamples(th, [][2]int{{1, 1}, {2, 2}, {1, 2}, {2, 1}}, 0, 1)
	if _, err := Fit(Async, exact, 0); err != nil {
		t.Errorf("exactly-determined fit rejected: %v", err)
	}
}

func TestFitSkipsInvalidSamples(t *testing.T) {
	th := [4]float64{2, 3, 0.05, 0.1}
	samples := asyncSamples(th, grid(5, 5), 0, 1)
	samples = append(samples,
		Sample{P: 0, W: 1, Speed: 1},
		Sample{P: 1, W: -1, Speed: 1},
		Sample{P: 1, W: 1, Speed: -5},
		Sample{P: 1, W: 1, Speed: math.NaN()},
	)
	m, err := Fit(Async, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := trueAsync(th, 3, 3)
	if got := m.Speed(3, 3); math.Abs(got-want)/want > 0.02 {
		t.Errorf("Speed(3,3) = %g, want %g", got, want)
	}
}

func TestModelSpeedEdgeCases(t *testing.T) {
	var unfitted Model
	if unfitted.Speed(1, 1) != 0 {
		t.Error("unfitted model should predict 0")
	}
	th := [4]float64{2, 3, 0.05, 0.1}
	m, err := Fit(Async, asyncSamples(th, grid(5, 5), 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Speed(0, 5) != 0 || m.Speed(5, 0) != 0 || m.Speed(-1, -1) != 0 {
		t.Error("non-positive configurations must predict 0 speed")
	}
}

func TestSyncSpeedHasInteriorMaximum(t *testing.T) {
	// §3.2 observation (c): with enough per-worker overhead, adding workers
	// eventually slows sync training. Verify the fitted model reproduces the
	// non-monotonicity of its ground truth.
	th := [5]float64{0.5, 0.1, 0.5, 0.3, 0.01}
	const M = 64
	var samples []Sample
	for _, c := range grid(4, 20) {
		samples = append(samples, Sample{P: c[0], W: c[1], Speed: trueSync(th, M, c[0], c[1])})
	}
	m, err := Fit(Sync, samples, M)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	best, bestW := 0.0, 0
	for w := 1; w <= 20; w++ {
		if s := m.Speed(p, w); s > best {
			best, bestW = s, w
		}
	}
	if bestW == 20 || bestW == 1 {
		t.Errorf("expected interior speed maximum, got w*=%d", bestW)
	}
	if m.Speed(p, 20) >= best {
		t.Error("speed at w=20 should be below the maximum")
	}
}

func TestAsyncDiminishingReturns(t *testing.T) {
	// §3.2 observation (b): adding servers helps with diminishing returns.
	th := [4]float64{2.83, 3.92, 0.0, 0.11}
	m, err := Fit(Async, asyncSamples(th, grid(10, 10), 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	const w = 10
	g1 := m.Speed(2, w) - m.Speed(1, w)
	g2 := m.Speed(6, w) - m.Speed(5, w)
	if g2 >= g1 {
		t.Errorf("marginal gain should shrink: Δ(1→2)=%g, Δ(5→6)=%g", g1, g2)
	}
}

func TestEstimatorAveragesNoise(t *testing.T) {
	th := [4]float64{2, 3, 0.05, 0.1}
	e := NewEstimator(Async, 0)
	r := rand.New(rand.NewSource(5))
	for _, c := range grid(5, 5) {
		truth := trueAsync(th, c[0], c[1])
		for rep := 0; rep < 20; rep++ {
			s := truth * (1 + 0.05*r.NormFloat64())
			if s <= 0 {
				s = truth
			}
			if err := e.Observe(c[0], c[1], s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.Configurations() != 25 {
		t.Fatalf("Configurations = %d, want 25", e.Configurations())
	}
	m, err := e.Fit()
	if err != nil {
		t.Fatal(err)
	}
	want := trueAsync(th, 4, 4)
	if got := m.Speed(4, 4); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Speed(4,4) = %g, want %g (±5%%)", got, want)
	}
}

func TestEstimatorObserveValidation(t *testing.T) {
	e := NewEstimator(Async, 0)
	if err := e.Observe(0, 1, 1); err == nil {
		t.Error("expected error for p=0")
	}
	if err := e.Observe(1, 1, 0); err == nil {
		t.Error("expected error for zero speed")
	}
	if err := e.Observe(1, 1, math.Inf(1)); err == nil {
		t.Error("expected error for infinite speed")
	}
}

func TestSamplingPlan(t *testing.T) {
	plan := SamplingPlan(5, 20)
	if len(plan) != 5 {
		t.Fatalf("plan length = %d, want 5", len(plan))
	}
	seen := make(map[[2]int]bool)
	for _, c := range plan {
		if c[0] <= 0 || c[1] <= 0 {
			t.Errorf("invalid configuration %v", c)
		}
		if c[0]+c[1] > 20 {
			t.Errorf("configuration %v exceeds maxTasks", c)
		}
		if seen[c] {
			t.Errorf("duplicate configuration %v", c)
		}
		seen[c] = true
	}
	if got := SamplingPlan(0, 10); got != nil {
		t.Errorf("SamplingPlan(0) = %v, want nil", got)
	}
	// Tiny maxTasks still yields at least (1,1).
	small := SamplingPlan(3, 2)
	if len(small) == 0 {
		t.Error("expected non-empty plan for maxTasks=2")
	}
}

func TestModeString(t *testing.T) {
	if Async.String() != "async" || Sync.String() != "sync" {
		t.Error("unexpected Mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still stringify")
	}
}

// Property: fitting noiseless data from the model family always reproduces
// the speeds to within 2% on the sampled region (Fig. 9 claim (a)).
func TestFitPropertyAsync(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		th := [4]float64{
			0.5 + 5*r.Float64(),
			0.5 + 5*r.Float64(),
			r.Float64() * 0.2,
			r.Float64() * 0.2,
		}
		samples := asyncSamples(th, grid(6, 6), 0, seed)
		m, err := Fit(Async, samples, 0)
		if err != nil {
			return false
		}
		for _, c := range grid(6, 6) {
			want := trueAsync(th, c[0], c[1])
			got := m.Speed(c[0], c[1])
			if math.Abs(got-want)/want > 0.02 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Fig. 8's claim — with ≥10 random samples out of the full grid,
// the mean estimation error stays below ~10% under mild noise.
func TestSampleEfficiency(t *testing.T) {
	th := [4]float64{2.83, 3.92, 0.01, 0.11}
	full := grid(12, 12)
	r := rand.New(rand.NewSource(21))
	var meanErr float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		idx := r.Perm(len(full))[:12]
		var configs [][2]int
		for _, i := range idx {
			configs = append(configs, full[i])
		}
		samples := asyncSamples(th, configs, 0.02, int64(trial))
		m, err := Fit(Async, samples, 0)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range full {
			want := trueAsync(th, c[0], c[1])
			sum += math.Abs(m.Speed(c[0], c[1])-want) / want
		}
		meanErr += sum / float64(len(full))
	}
	meanErr /= trials
	if meanErr > 0.10 {
		t.Errorf("mean estimation error = %.1f%%, want < 10%%", meanErr*100)
	}
}

func TestEstimatorDecayTracksDrift(t *testing.T) {
	// The true speed of a configuration drops by half mid-stream (e.g. the
	// network got busy). A decaying estimator must track the new regime; the
	// plain mean stays stuck in between.
	observe := func(decay float64) float64 {
		e := NewEstimator(Async, 0)
		e.Decay = decay
		for i := 0; i < 50; i++ {
			if err := e.Observe(2, 4, 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := e.Observe(2, 4, 5); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range e.Samples() {
			if s.P == 2 && s.W == 4 {
				return s.Speed
			}
		}
		t.Fatal("configuration missing")
		return 0
	}
	plain := observe(0)
	decayed := observe(0.8)
	if math.Abs(plain-7.5) > 0.1 {
		t.Errorf("plain mean = %g, want ≈ 7.5", plain)
	}
	if math.Abs(decayed-5) > 0.2 {
		t.Errorf("decayed mean = %g, want ≈ 5 (tracking the new regime)", decayed)
	}
}

// TestEstimatorFitCacheMatchesRefit is the dirty-flag contract: cached fits
// must be indistinguishable from always-refitting on the same observations.
func TestEstimatorFitCacheMatchesRefit(t *testing.T) {
	th := [4]float64{0.02, 0.01, 0.003, 0.002}
	e := NewEstimator(Async, 0)
	n := 0
	for p := 1; p <= 6; p++ {
		for w := 1; w <= 6; w++ {
			if err := e.Observe(p, w, trueAsync(th, p, w)); err != nil {
				t.Fatal(err)
			}
			n++
			if n < 6 || n%5 != 0 {
				continue
			}
			got, gotErr := e.Fit()
			again, againErr := e.Fit() // no new data: cache hit
			if (gotErr == nil) != (againErr == nil) {
				t.Fatalf("n=%d: err %v vs cached err %v", n, gotErr, againErr)
			}
			want, wantErr := Fit(e.Mode, e.Samples(), e.BatchSize)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("n=%d: err %v vs fresh err %v", n, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Residual != want.Residual || got.Residual != again.Residual ||
				len(got.Theta) != len(want.Theta) {
				t.Fatalf("n=%d: cached fit %+v != fresh fit %+v", n, got, want)
			}
			for i := range got.Theta {
				if got.Theta[i] != want.Theta[i] || got.Theta[i] != again.Theta[i] {
					t.Fatalf("n=%d: theta[%d] cached %g fresh %g", n, i, got.Theta[i], want.Theta[i])
				}
			}
		}
	}
}

// TestSamplesDeterministicOrder pins the (p, w) ordering of Samples: NNLS
// sums rows in floating point, so map-iteration order would make fitted
// coefficients — and with them whole simulator runs — irreproducible.
func TestSamplesDeterministicOrder(t *testing.T) {
	e := NewEstimator(Async, 0)
	for _, c := range [][2]int{{3, 1}, {1, 2}, {2, 2}, {1, 1}, {2, 1}} {
		if err := e.Observe(c[0], c[1], 1.0); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Samples()
	want := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	for i, s := range got {
		if s.P != want[i][0] || s.W != want[i][1] {
			t.Fatalf("Samples()[%d] = (%d,%d), want (%d,%d)", i, s.P, s.W, want[i][0], want[i][1])
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"async", Async, true},
		{"sync", Sync, true},
		{"", 0, false},
		{"ASYNC", 0, false},
		{"sync ", 0, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("ParseMode(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestAccumRoundTrip pins the accumulator rows: Accum lists them ordered by
// (p, w) whatever the Observe order, SetAccum takes rows in any order, drops
// invalid ones and keeps the later of two rows for one configuration, and
// an estimator rebuilt from Accum refits to the same bits.
func TestAccumRoundTrip(t *testing.T) {
	e := NewEstimator(Async, 0)
	for i, c := range [][2]int{{3, 1}, {1, 2}, {2, 2}, {1, 1}, {2, 1}, {1, 2}, {3, 1}} {
		if err := e.Observe(c[0], c[1], 1+0.1*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rows := e.Accum()
	want := [][2]float64{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	if len(rows) != len(want) || e.Configurations() != len(want) {
		t.Fatalf("Accum() = %v, want configurations %v", rows, want)
	}
	for i, r := range rows {
		if r[0] != want[i][0] || r[1] != want[i][1] {
			t.Fatalf("Accum()[%d] = %v, want configuration %v", i, r, want[i])
		}
	}

	// Reversed, with a stale duplicate of (2, 2) first and invalid rows.
	in := [][4]float64{{2, 2, 99, 7}, {0, 1, 1, 1}, {1, 1, 1, 0}}
	for i := len(rows) - 1; i >= 0; i-- {
		in = append(in, rows[i])
	}
	r := NewEstimator(Async, 0)
	r.SetAccum(in)
	got := r.Accum()
	if len(got) != len(rows) {
		t.Fatalf("rebuilt Accum() = %v, want %v", got, rows)
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("rebuilt Accum()[%d] = %v, want %v", i, got[i], rows[i])
		}
	}
	m, err := e.Fit()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := r.Fit()
	if err != nil {
		t.Fatal(err)
	}
	for j := range m.Theta {
		if math.Float64bits(m.Theta[j]) != math.Float64bits(rm.Theta[j]) {
			t.Fatalf("rebuilt theta[%d] = %v, want %v", j, rm.Theta[j], m.Theta[j])
		}
	}
}
