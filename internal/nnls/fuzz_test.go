package nnls

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSolve hardens the NNLS solver: arbitrary well-formed inputs must never
// panic, never return negative or non-finite coordinates, and never report a
// residual worse than the zero vector's. Each input also runs a β2-style
// sweep (see sweepMatchesReference).
func FuzzSolve(f *testing.F) {
	f.Add(int64(1), 4, 2)
	f.Add(int64(2), 10, 5)
	f.Add(int64(3), 1, 1)
	f.Add(int64(4), 30, 6)

	f.Fuzz(func(t *testing.T, seed int64, rows, cols int) {
		if rows < 1 || rows > 64 || cols < 1 || cols > 16 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			// Mix magnitudes to stress conditioning.
			a.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(5)-2))
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		sweepMatchesReference(t, r, a)
		x, res, err := Solve(a, b)
		if err != nil {
			return
		}
		for i, v := range x {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("x[%d] = %v", i, v)
			}
		}
		if math.IsNaN(res) || res > Norm2(b)+1e-6*(1+Norm2(b)) {
			t.Fatalf("residual %v worse than zero vector %v", res, Norm2(b))
		}

		// A warm-started resolve of a perturbed problem (the online-refit
		// pattern, including a row count change: new observations arrived) must
		// obey the same invariants and match its own cold solve to within the
		// optimizer's tolerance. Warm-starting may pick a different vertex only
		// when the problem is degenerate, so compare residuals, not coordinates.
		var ws Workspace
		var ref refWorkspace
		if _, _, err := ws.Solve(a, b); err != nil {
			return
		}
		_, _, _ = ref.Solve(a, b)
		rows2 := rows + r.Intn(3)
		a2 := NewMatrix(rows2, cols)
		copy(a2.Data, a.Data)
		for i := rows * cols; i < len(a2.Data); i++ {
			a2.Data[i] = r.NormFloat64()
		}
		b2 := make([]float64, rows2)
		for i := range b2 {
			if i < rows {
				b2[i] = b[i] * (1 + 0.01*r.NormFloat64())
			} else {
				b2[i] = r.NormFloat64()
			}
		}
		_, _, _ = ref.Solve(a2, b2)
		wx, wres, werr := ws.Solve(a2, b2)
		cx, cres, cerr := Solve(a2, b2)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("warm err %v, cold err %v", werr, cerr)
		}
		if werr != nil {
			return
		}
		for i, v := range wx {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("warm x[%d] = %v", i, v)
			}
		}
		tol := 1e-6 * (1 + Norm2(b2))
		if math.Abs(wres-cres) > tol {
			t.Fatalf("warm residual %v vs cold %v (tol %v)\nwarm x %v\ncold x %v",
				wres, cres, tol, wx, cx)
		}

		// Same matrix, new rhs (lossfit's β2 sweep): the solve that may reuse
		// the cached factors must match the reference workspace, which saw the
		// same call sequence and refactors every time, bit for bit.
		for i := range b2 {
			b2[i] = r.NormFloat64()
		}
		sx, sres, serr := ws.Solve(a2, b2)
		rx, rres, rerr := ref.Solve(a2, b2)
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("new-rhs err %v, reference err %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		if math.Float64bits(sres) != math.Float64bits(rres) {
			t.Fatalf("new-rhs residual %v, reference %v", sres, rres)
		}
		for i := range rx {
			if math.Float64bits(sx[i]) != math.Float64bits(rx[i]) {
				t.Fatalf("new-rhs x[%d] = %v, reference %v", i, sx[i], rx[i])
			}
		}
	})
}

// sweepMatchesReference solves a against 21 right-hand sides whose
// noise-free solution slides from a non-negative vector to one with negative
// coordinates, so the passive set flips along the way and the factor cache
// extends, shrinks and refactors its column lists. A workspace keyed by value
// (Solve), one told of the matrix only on the first solve (CoefTracked) and
// the reference, which factors afresh every time, must agree bit for bit on
// every solve, error outcomes included.
func sweepMatchesReference(t *testing.T, r *rand.Rand, a *Matrix) {
	var ws, wt Workspace
	var ref refWorkspace
	from, to := make([]float64, a.Cols), make([]float64, a.Cols)
	for j := range from {
		from[j] = 2 * r.Float64()
		to[j] = 2*r.Float64() - 1.5
	}
	b := make([]float64, a.Rows)
	for s := 0; s <= 20; s++ {
		f := float64(s) / 20
		for i := range b {
			var dot float64
			for j := 0; j < a.Cols; j++ {
				dot += a.At(i, j) * ((1-f)*from[j] + f*to[j])
			}
			b[i] = dot + 0.01*r.NormFloat64()
		}
		x, res, err := ws.Solve(a, b)
		tx, terr := wt.CoefTracked(a, b, s == 0)
		rx, rres, rerr := ref.Solve(a, b)
		if (err == nil) != (rerr == nil) || (terr == nil) != (rerr == nil) {
			t.Fatalf("sweep %d: err %v, tracked err %v, reference err %v", s, err, terr, rerr)
		}
		if rerr != nil {
			continue
		}
		if math.Float64bits(res) != math.Float64bits(rres) {
			t.Fatalf("sweep %d: residual %v, reference %v", s, res, rres)
		}
		for j := range rx {
			if math.Float64bits(x[j]) != math.Float64bits(rx[j]) ||
				math.Float64bits(tx[j]) != math.Float64bits(rx[j]) {
				t.Fatalf("sweep %d: x[%d] = %v, tracked %v, reference %v", s, j, x[j], tx[j], rx[j])
			}
		}
	}
}
