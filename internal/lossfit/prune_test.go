package lossfit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// fitPointsUnpruned is fitPoints' β2 grid as it was before the residual sum
// stopped early: every candidate is solved through the full Solve (norm
// included) and its loss-space residual summed over every row. It is the
// reference TestEarlyExitMatchesFullGrid holds the pruned grid to.
func (s *fitScratch) fitPointsUnpruned(points []Point, window int) (Model, error) {
	if len(points) < 4 {
		return Model{}, errors.New("lossfit: too few points")
	}
	cleaned, maxLoss := s.preprocess(points, window)
	minLoss := math.Inf(1)
	for _, p := range cleaned {
		if p.Loss < minLoss {
			minLoss = p.Loss
		}
	}
	best := Model{Residual: math.Inf(1), MaxLoss: maxLoss}
	s.mat.Rows = -1
	const gridSteps = 40
	for g := 0; g <= gridSteps; g++ {
		b2 := minLoss * float64(g) / float64(gridSteps+1)
		rhs := s.rhs[:0]
		for _, p := range cleaned {
			if d := p.Loss - b2; d > 1e-9 {
				rhs = append(rhs, 1/d)
			}
		}
		s.rhs = rhs
		if len(rhs) < 3 {
			continue
		}
		if s.mat.Rows != len(rhs) {
			data := s.mat.Data[:0]
			for _, p := range cleaned {
				if p.Loss-b2 > 1e-9 {
					data = append(data, p.K, 1)
				}
			}
			s.mat.Data, s.mat.Rows, s.mat.Cols = data, len(rhs), 2
		}
		x, _, err := s.ws.Solve(&s.mat, rhs)
		if err != nil {
			continue
		}
		m := Model{B0: x[0], B1: x[1], B2: b2}
		if m.B0 <= 0 {
			continue
		}
		var ss float64
		for _, p := range cleaned {
			d := m.Loss(p.K) - p.Loss
			ss += d * d
		}
		m.Residual = math.Sqrt(ss / float64(len(cleaned)))
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

// fewKeptTrajectory has two losses above a floor and every other at a floor
// of 1e-8 of the maximum: the floor rows fall under the transform threshold
// for the last β2 candidates, which then keep two rows, too few to fit.
func fewKeptTrajectory(seed int64) []Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]Point, 20+r.Intn(80))
	for i := range pts {
		l := 1e-8
		if i < 2 {
			l = 1 - 0.4*float64(i) + 0.01*r.Float64()
		}
		pts[i] = Point{K: float64(i + 1), Loss: l}
	}
	return pts
}

// TestEarlyExitMatchesFullGrid replays seeded trajectories one Add at a time
// through the production fit and through fitPointsUnpruned, each on its own
// persistent scratch as a Fitter keeps it, and requires the same error
// outcome and the same model bits after every Add. The trajectories run past
// the 32-row chunk of the early exit and cover noisy, outlier, flat,
// rows-skipped and too-few-kept-rows histories.
func TestEarlyExitMatchesFullGrid(t *testing.T) {
	type trajectory struct {
		kind string
		pts  []Point
	}
	var cases []trajectory
	for seed := int64(1); seed <= 12; seed++ {
		for _, kind := range pinnedKinds {
			cases = append(cases, trajectory{kind, genTrajectory(kind, seed+100)})
		}
		cases = append(cases, trajectory{"few-kept", fewKeptTrajectory(seed)})
	}
	bits := func(m Model) [5]uint64 {
		return [5]uint64{math.Float64bits(m.B0), math.Float64bits(m.B1), math.Float64bits(m.B2),
			math.Float64bits(m.Residual), math.Float64bits(m.MaxLoss)}
	}
	for _, c := range cases {
		var pruned, full fitScratch
		for n := 4; n <= len(c.pts); n++ {
			got, err := pruned.fitPoints(c.pts[:n], 5)
			want, wantErr := full.fitPointsUnpruned(c.pts[:n], 5)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s, %d points: err %v, unpruned err %v", c.kind, n, err, wantErr)
			}
			if bits(got) != bits(want) {
				t.Fatalf("%s, %d points: model %+v, unpruned %+v", c.kind, n, got, want)
			}
		}
	}
}
