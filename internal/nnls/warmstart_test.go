package nnls

import (
	"math"
	"math/rand"
	"testing"
)

// randWellPosed builds an overdetermined full-rank problem whose solution has
// a mix of active and inactive coordinates: a Gaussian matrix with rows ≫
// cols is almost surely full rank, and rhs = A·x* + ε for a sparse
// non-negative x*.
func randWellPosed(r *rand.Rand) (*Matrix, []float64) {
	cols := 2 + r.Intn(8)
	rows := 3*cols + r.Intn(40)
	a := NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	truth := make([]float64, cols)
	for j := range truth {
		if r.Intn(2) == 0 {
			truth[j] = r.Float64() * 3
		}
	}
	b := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var dot float64
		for j := 0; j < cols; j++ {
			dot += a.Data[i*cols+j] * truth[j]
		}
		b[i] = dot + 0.01*r.NormFloat64()
	}
	return a, b
}

// TestWarmStartMatchesCold reuses one workspace across a stream of unrelated
// well-posed problems and requires every warm-started solve to agree with a
// cold start: same solution and residual within solver tolerance. Carrying
// the previous problem's passive set into the next (wrong) problem is exactly
// the situation the warm path's feasibility check must survive.
func TestWarmStartMatchesCold(t *testing.T) {
	ws := NewWorkspace()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		a, b := randWellPosed(r)
		wx, wres, werr := ws.Solve(a, b)
		cx, cres, cerr := Solve(a, b)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("trial %d: warm err %v, cold err %v", trial, werr, cerr)
		}
		if werr != nil {
			continue
		}
		tol := 1e-6 * (1 + Norm2(b))
		if math.Abs(wres-cres) > tol {
			t.Fatalf("trial %d: warm residual %v vs cold %v", trial, wres, cres)
		}
		for j := range wx {
			if math.Abs(wx[j]-cx[j]) > tol {
				t.Fatalf("trial %d: x[%d] warm %v vs cold %v", trial, j, wx[j], cx[j])
			}
		}
	}
}

// TestWarmStartRefitSequence drives the caller pattern the warm start is
// built for: the same regression problem growing by one observation row per
// step. Each warm refit must match a cold solve of the identical problem.
func TestWarmStartRefitSequence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const cols, startRows, steps = 5, 20, 60
	truth := []float64{2, 0, 1.5, 0, 0.7}
	row := func(dst []float64) float64 {
		var dot float64
		for j := range dst {
			dst[j] = r.NormFloat64()
			dot += dst[j] * truth[j]
		}
		return dot + 0.01*r.NormFloat64()
	}
	a := NewMatrix(startRows, cols)
	b := make([]float64, startRows)
	for i := 0; i < startRows; i++ {
		b[i] = row(a.Data[i*cols : (i+1)*cols])
	}
	ws := NewWorkspace()
	for step := 0; step < steps; step++ {
		wx, wres, werr := ws.Solve(a, b)
		cx, cres, cerr := Solve(a, b)
		if werr != nil || cerr != nil {
			t.Fatalf("step %d: warm err %v, cold err %v", step, werr, cerr)
		}
		tol := 1e-6 * (1 + Norm2(b))
		if math.Abs(wres-cres) > tol {
			t.Fatalf("step %d: warm residual %v vs cold %v", step, wres, cres)
		}
		for j := range wx {
			if math.Abs(wx[j]-cx[j]) > tol {
				t.Fatalf("step %d: x[%d] warm %v vs cold %v", step, j, wx[j], cx[j])
			}
		}
		newRow := make([]float64, cols)
		b = append(b, row(newRow))
		a.Data = append(a.Data, newRow...)
		a.Rows++
	}
}

// TestWorkspaceSolveAllocationFree pins down the workspace contract: after
// the first solve sized the buffers, repeat solves of same-shaped problems
// allocate nothing — whether they hit the factor cache (one matrix) or miss
// it every time (two matrices alternating, so the key and factors are
// rewritten on every solve).
func TestWorkspaceSolveAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randWellPosed(r)
	a2 := a.Clone()
	for i := range a2.Data {
		a2.Data[i] += 0.1 * r.NormFloat64()
	}
	for _, tc := range []struct {
		name string
		mats []*Matrix
	}{
		{"same-matrix", []*Matrix{a}},
		{"alternating", []*Matrix{a, a2}},
	} {
		ws := NewWorkspace()
		for _, m := range tc.mats {
			if _, _, err := ws.Solve(m, b); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := ws.Solve(tc.mats[i%len(tc.mats)], b); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warmed Workspace.Solve allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}
