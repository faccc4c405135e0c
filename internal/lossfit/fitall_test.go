package lossfit

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// fitAllKinds are the fitter shapes TestFitAllMatchesSerial mixes: a sparse
// stream that spends many rounds below the 4-point minimum (and the 5-point
// scheduler gate), clean and outlier-heavy curves, a small MaxPoints that
// compacts every few rounds, flat or rising losses whose fit fails, and a
// mostly fresh fitter whose OutlierWindow flips now and then.
var fitAllKinds = []string{"sparse", "clean", "outliers", "compacting", "failing", "fresh"}

// fitAllCase drives one fitter shape: newFitter builds it, and step returns
// the samples it gains in one round plus whether its OutlierWindow flips.
type fitAllCase struct {
	kind       string
	b0, b1, b2 float64
	k          float64
}

func (c *fitAllCase) newFitter() *Fitter {
	f := NewFitter()
	if c.kind == "compacting" {
		f.MaxPoints = 16
	}
	return f
}

func (c *fitAllCase) step(r *rand.Rand) (pts []Point, flip bool) {
	n := 0
	switch c.kind {
	case "sparse":
		if r.Intn(4) == 0 {
			n = 1
		}
	case "clean", "outliers":
		n = r.Intn(3)
	case "compacting":
		n = 1 + r.Intn(5)
	case "failing":
		n = r.Intn(2)
	case "fresh":
		if r.Intn(10) == 0 {
			n = 1
		}
		flip = r.Intn(8) == 0
	}
	for i := 0; i < n; i++ {
		c.k++
		l := 1/(c.b0*c.k+c.b1) + c.b2
		switch c.kind {
		case "outliers":
			if r.Intn(4) == 0 {
				l *= 0.2 + 4*r.Float64()
			}
		case "failing":
			l = 1 + 0.01*c.k // rising: every β2 candidate is flat or worse
		default:
			l *= 1 + 0.03*r.NormFloat64()
		}
		pts = append(pts, Point{K: c.k, Loss: l})
	}
	return pts, flip
}

// sameFit compares two Fit results field for field by bit pattern.
func sameFit(a Model, aerr error, b Model, berr error) error {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Errorf("errors differ: %v vs %v", aerr, berr)
	}
	af := [...]float64{a.B0, a.B1, a.B2, a.MaxLoss, a.Residual}
	bf := [...]float64{b.B0, b.B1, b.B2, b.MaxLoss, b.Residual}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return fmt.Errorf("models differ: %+v vs %+v", a, b)
		}
	}
	return nil
}

// TestFitAllMatchesSerial is the property test behind FitAll: over 50 rounds
// of Add → refit on seeded fitters of every shape, FitAll leaves each fitter
// exactly where a serial Fit on its clone leaves it — same model bits, same
// error — at GOMAXPROCS 1 and 8. Repeating the cycle proves the per-fitter
// NNLS warm-start sequence is unchanged too. Fitters fresh before the call
// keep their generation and cached model, and observe sees one sample per
// refit.
func TestFitAllMatchesSerial(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for seed := int64(1); seed <= 3; seed++ {
				checkFitAllRounds(t, seed)
			}
		})
	}
}

func checkFitAllRounds(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var cases []*fitAllCase
	for i := 0; i < 4; i++ {
		for _, kind := range fitAllKinds {
			cases = append(cases, &fitAllCase{
				kind: kind,
				b0:   0.01 + r.Float64()*0.3,
				b1:   0.5 + r.Float64()*2,
				b2:   r.Float64() * 0.2,
			})
		}
	}
	par := make([]*Fitter, len(cases))
	ser := make([]*Fitter, len(cases))
	for i, c := range cases {
		par[i], ser[i] = c.newFitter(), c.newFitter()
	}
	type cached struct {
		gen uint64
		m   Model
		err error
	}
	var short, four, failed, compacted bool // coverage of the named cases
	for round := 0; round < 50; round++ {
		for i, c := range cases {
			pts, flip := c.step(r)
			for _, f := range [...]*Fitter{par[i], ser[i]} {
				for _, p := range pts {
					if err := f.Add(p.K, p.Loss); err != nil {
						t.Fatal(err)
					}
				}
				if flip {
					f.OutlierWindow = 8 - f.OutlierWindow // 5 ↔ 3
				}
			}
		}
		fresh := map[int]cached{}
		stale := 0
		for i, f := range par {
			if f.fresh() {
				m, err := f.Fit()
				fresh[i] = cached{f.Generation(), m, err}
			} else {
				stale++
			}
		}
		var observed atomic.Int64
		FitAll(par, func(float64) { observed.Add(1) })
		if got := observed.Load(); got != int64(stale) {
			t.Fatalf("seed %d round %d: observed %d refits, want %d", seed, round, got, stale)
		}
		for i := range par {
			if !par[i].fresh() {
				t.Fatalf("seed %d round %d: %s fitter %d still stale after FitAll", seed, round, cases[i].kind, i)
			}
			pm, perr := par[i].Fit()
			sm, serr := ser[i].Fit()
			if err := sameFit(pm, perr, sm, serr); err != nil {
				t.Fatalf("seed %d round %d: %s fitter %d (%d points): %v", seed, round, cases[i].kind, i, par[i].Len(), err)
			}
			n := par[i].Len()
			short = short || n < 4
			four = four || n == 4
			failed = failed || (perr != nil && n >= 4)
			compacted = compacted || n < int(cases[i].k)
			if c, ok := fresh[i]; ok {
				if par[i].Generation() != c.gen {
					t.Fatalf("seed %d round %d: fresh fitter %d generation moved", seed, round, i)
				}
				if err := sameFit(pm, perr, c.m, c.err); err != nil {
					t.Fatalf("seed %d round %d: fresh fitter %d cache changed: %v", seed, round, i, err)
				}
			}
		}
	}
	if !short || !four || !failed || !compacted {
		t.Fatalf("seed %d: mix lacks a case: <4 points %v, 4 points %v, failed %v, compacted %v",
			seed, short, four, failed, compacted)
	}
}
