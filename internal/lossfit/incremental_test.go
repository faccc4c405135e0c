package lossfit

import (
	"math"
	"math/rand"
	"testing"
)

// editTrajectory is a seeded loss history built to move the incremental
// preprocessing's every branch: spikes and dips inside the outlier window, a
// late sample above every earlier one (a new maximum, which the next sample
// then filters away as the maximum leaves the tail), exact ties, and, with
// negative set, losses at or below zero (the maximum falls back to 1).
func editTrajectory(seed int64, n int, negative bool) []Point {
	r := rand.New(rand.NewSource(seed))
	b0, b1 := 0.02+0.2*r.Float64(), 0.5+r.Float64()
	pts := make([]Point, n)
	for i := range pts {
		k := float64(i + 1)
		l := (1/(b0*k+b1) + 0.05) * (1 + 0.03*r.NormFloat64())
		switch r.Intn(12) {
		case 0:
			l *= 1 + 4*r.Float64() // spike
		case 1:
			l *= 0.2 // dip
		case 2:
			l *= 20 // above every earlier loss
		case 3:
			if i > 0 {
				l = pts[i-1].Loss // tie
			}
		}
		if negative {
			l -= 2
		}
		pts[i] = Point{K: k, Loss: l}
	}
	return pts
}

// samePreprocessed requires got to be Preprocess(points, window) bit for bit.
func samePreprocessed(t *testing.T, label string, got []Point, gotMax float64, points []Point, window int) {
	t.Helper()
	want, wantMax := Preprocess(points, window)
	if math.Float64bits(gotMax) != math.Float64bits(wantMax) {
		t.Fatalf("%s: max %v, full pass %v", label, gotMax, wantMax)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, full pass %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].K) != math.Float64bits(want[i].K) ||
			math.Float64bits(got[i].Loss) != math.Float64bits(want[i].Loss) {
			t.Fatalf("%s: sample %d is %+v, full pass %+v", label, i, got[i], want[i])
		}
	}
}

// TestIncrementalPreprocessMatchesFullPass holds the incremental
// preprocessing to the full pass, Preprocess, by Float64bits after every
// refit: through Fitters that compact and whose window changes mid-history,
// and through a bare scratch fed one appended sample at a time from the
// first, under windows 0 to 7.
func TestIncrementalPreprocessMatchesFullPass(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		pts := editTrajectory(seed, 150, seed%4 == 0)
		// A Fitter refit after every Add, and one refit only at 22 samples:
		// 41 compact to 21, so a compaction falls between two of its refits.
		for _, sparse := range []bool{false, true} {
			f := NewFitter()
			f.MaxPoints = 40
			compacted := false
			for i, p := range pts {
				switch i {
				case 50:
					f.OutlierWindow = 2
				case 90:
					f.OutlierWindow = 7
				case 120:
					f.OutlierWindow = 0
				}
				n := f.Len()
				if err := f.Add(p.K, p.Loss); err != nil {
					t.Fatal(err)
				}
				compacted = compacted || f.Len() <= n
				if f.Len() < 4 || sparse && f.Len() != 22 {
					continue
				}
				_, _ = f.Fit()
				s := f.scratch
				samePreprocessed(t, "fitter", s.cleaned[:s.n], s.maxLoss, f.points, f.OutlierWindow)
			}
			if !compacted {
				t.Fatalf("seed %d: the trajectory never compacted", seed)
			}
		}

		for window := 0; window <= 7; window++ {
			var s fitScratch
			for n := 1; n <= 60; n++ {
				got, gotMax := s.update(pts[:n], window, true)
				samePreprocessed(t, "scratch", got, gotMax, pts[:n], window)
			}
		}
	}
}

// TestRefitFactorsEachColumnOnce pins the factor cache's cost on a 200-Add
// noisy trajectory: each refit builds one design matrix [k, 1] and factors
// each of its two columns at most once, however often Lawson–Hanson's
// passive set moves between {0} and {0, 1} over the 41 β2 candidates.
func TestRefitFactorsEachColumnOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := NewFitter()
	refits := 0
	for i := 0; i < 200; i++ {
		k := float64(i + 1)
		if err := f.Add(k, (1/(0.1*k+1)+0.1)*(1+0.03*r.NormFloat64())); err != nil {
			t.Fatal(err)
		}
		if f.Len() < 4 {
			continue
		}
		before := 0
		if f.scratch != nil {
			before = f.scratch.ws.Factorings()
		}
		if _, err := f.Fit(); err != nil {
			t.Fatal(err)
		}
		refits++
		if got := f.scratch.ws.Factorings() - before; got > 2 {
			t.Fatalf("refit after Add %d factored %d columns, want ≤ 2", i+1, got)
		}
	}
	if refits != 197 {
		t.Fatalf("%d refits, want 197", refits)
	}
}
