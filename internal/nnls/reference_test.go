package nnls

// This file preserves the pre-factor-cache least-squares kernel and NNLS
// workspace verbatim (modulo ref* renames) as an executable specification.
// The oracle tests in factor_test.go drive both over seeded solve sequences
// and require Float64bits-identical solutions and residuals, so the factor
// cache can only ever skip work, never change a bit of what a solve returns.

import (
	"errors"
	"math"
)

func refLstsqInPlace(qr *Matrix, diag, rhs, x []float64) error {
	if qr.Rows < qr.Cols {
		return errors.New("nnls: underdetermined system (rows < cols)")
	}
	if len(rhs) != qr.Rows {
		return errors.New("nnls: rhs length mismatch")
	}
	m, n := qr.Rows, qr.Cols

	// Relative tolerance for declaring a pivot column numerically zero.
	var scale float64
	for _, v := range qr.Data[:m*n] {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	rankTol := 2.2e-16 * scale * float64(m) * 16

	for k := 0; k < n; k++ {
		// Compute the Householder reflector for column k.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm <= rankTol {
			return ErrRankDeficient
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)

		// Apply the reflector to remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		// Apply the reflector to the right-hand side.
		var s float64
		for i := k; i < m; i++ {
			s += qr.At(i, k) * rhs[i]
		}
		s = -s / qr.At(k, k)
		for i := k; i < m; i++ {
			rhs[i] += s * qr.At(i, k)
		}
		// The reflector occupies the lower triangle including the diagonal
		// position, so R's diagonal (-norm) lives in a separate slice.
		diag[k] = -norm
	}

	// Back substitution on R (upper triangle of qr with diagonal in diag).
	for k := n - 1; k >= 0; k-- {
		s := rhs[k]
		for j := k + 1; j < n; j++ {
			s -= qr.At(k, j) * x[j]
		}
		d := diag[k]
		if d == 0 || math.Abs(d) < 1e-300 {
			return ErrRankDeficient
		}
		x[k] = s / d
	}
	return nil
}

type refWorkspace struct {
	// solver state
	x       []float64
	resid   []float64
	dual    []float64
	z       []float64
	passive []bool

	// passive-subproblem scratch
	cols   []int
	sub    Matrix
	subRhs []float64
	subSol []float64
	diag   []float64

	// warm-start memory: the passive set of the previous successful solve.
	warm     []bool
	warmCols int
	hasWarm  bool
}

func (ws *refWorkspace) Solve(a *Matrix, b []float64) ([]float64, float64, error) {
	if len(b) != a.Rows {
		return nil, 0, errors.New("nnls: rhs length mismatch")
	}
	n := a.Cols
	if n == 0 {
		return nil, Norm2(b), errors.New("nnls: empty matrix")
	}
	ws.ensure(a.Rows, n)

	// Scale-aware tolerance, mirroring the classical implementation.
	var amax float64
	for _, v := range a.Data[:a.Rows*a.Cols] {
		if av := math.Abs(v); av > amax {
			amax = av
		}
	}
	tol := 10 * 2.2e-16 * amax * float64(max(a.Rows, a.Cols))
	if tol == 0 {
		tol = 1e-12
	}
	maxIter := 3*n + 30

	x := ws.x[:n]
	passive := ws.passive[:n]
	for i := range x {
		x[i] = 0
		passive[i] = false
	}

	// Warm start: re-solve on the remembered passive set. Only a strictly
	// feasible solution is accepted; anything else falls back to a cold
	// start, so the warm path can never hurt correctness.
	if ws.hasWarm && ws.warmCols == n {
		any := false
		for k, p := range ws.warm[:n] {
			if p {
				passive[k] = true
				any = true
			}
		}
		if any {
			z, ok := ws.solvePassive(a, b, passive)
			if ok && allPositive(z, passive, tol) {
				copyPassive(x, z, passive)
			} else {
				for i := range passive {
					passive[i] = false
				}
			}
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		// Dual vector w = Aᵀ(b − A·x).
		w := ws.dualInto(a, x, b)

		// Pick the most violated constraint among the active set.
		j, wmax := -1, tol
		for k := 0; k < n; k++ {
			if !passive[k] && w[k] > wmax {
				j, wmax = k, w[k]
			}
		}
		if j < 0 {
			break // KKT conditions satisfied
		}
		passive[j] = true

		// Inner loop: solve the unconstrained problem on the passive set and
		// back off along the segment to x until feasibility is restored.
		for {
			z, ok := ws.solvePassive(a, b, passive)
			if !ok {
				// The passive column set became rank deficient; drop the
				// newest column and give up on it this round.
				passive[j] = false
				break
			}
			if allPositive(z, passive, tol) {
				copyPassive(x, z, passive)
				break
			}
			alpha := math.Inf(1)
			for k := 0; k < n; k++ {
				if passive[k] && z[k] <= tol {
					if r := x[k] / (x[k] - z[k]); r < alpha {
						alpha = r
					}
				}
			}
			if math.IsInf(alpha, 1) {
				// Should not happen; guard against a stall.
				copyPassive(x, z, passive)
				break
			}
			for k := 0; k < n; k++ {
				if passive[k] {
					x[k] += alpha * (z[k] - x[k])
					if x[k] <= tol {
						x[k] = 0
						passive[k] = false
					}
				}
			}
		}
	}

	// Clamp numerical dust.
	for k := range x {
		if x[k] < 0 {
			x[k] = 0
		}
	}

	// Remember the passive set for the next solve.
	copy(ws.warm[:n], passive)
	ws.warmCols = n
	ws.hasWarm = true

	return x, Norm2(ws.residInto(a, x, b)), nil
}

func (ws *refWorkspace) ensure(m, n int) {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
		ws.dual = make([]float64, n)
		ws.z = make([]float64, n)
		ws.subSol = make([]float64, n)
		ws.diag = make([]float64, n)
		ws.cols = make([]int, 0, n)
		ws.passive = make([]bool, n)
		w := make([]bool, n)
		copy(w, ws.warm)
		ws.warm = w
	}
	if cap(ws.resid) < m {
		ws.resid = make([]float64, m)
		ws.subRhs = make([]float64, m)
	}
	if cap(ws.sub.Data) < m*n {
		ws.sub.Data = make([]float64, m*n)
	}
}

func (ws *refWorkspace) residInto(a *Matrix, x, b []float64) []float64 {
	out := ws.resid[:a.Rows]
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = b[i] - s
	}
	return out
}

func (ws *refWorkspace) dualInto(a *Matrix, x, b []float64) []float64 {
	r := ws.residInto(a, x, b)
	out := ws.dual[:a.Cols]
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		ri := r[i]
		for j, v := range row {
			out[j] += v * ri
		}
	}
	return out
}

func (ws *refWorkspace) solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, bool) {
	n := a.Cols
	cols := ws.cols[:0]
	for k := 0; k < n; k++ {
		if passive[k] {
			cols = append(cols, k)
		}
	}
	ws.cols = cols
	z := ws.z[:n]
	for i := range z {
		z[i] = 0
	}
	if len(cols) == 0 {
		return z, true
	}
	m, nc := a.Rows, len(cols)
	ws.sub.Rows, ws.sub.Cols = m, nc
	ws.sub.Data = ws.sub.Data[:m*nc]
	for i := 0; i < m; i++ {
		src := a.Data[i*n : (i+1)*n]
		dst := ws.sub.Data[i*nc : (i+1)*nc]
		for jj, c := range cols {
			dst[jj] = src[c]
		}
	}
	rhs := ws.subRhs[:m]
	copy(rhs, b)
	sol := ws.subSol[:nc]
	if err := refLstsqInPlace(&ws.sub, ws.diag[:nc], rhs, sol); err != nil {
		return nil, false
	}
	for jj, c := range cols {
		z[c] = sol[jj]
	}
	return z, true
}
