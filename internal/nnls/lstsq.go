package nnls

import (
	"errors"
	"math"
)

// ErrRankDeficient is returned when the coefficient matrix does not have full
// column rank and a unique least-squares solution does not exist.
var ErrRankDeficient = errors.New("nnls: matrix is rank deficient")

// LeastSquares solves min‖A·x − b‖₂ for a full-column-rank A (Rows ≥ Cols)
// using Householder QR factorization. A and b are not modified.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, errors.New("nnls: rhs length mismatch")
	}
	qr := a.Clone()
	rhs := make([]float64, len(b))
	copy(rhs, b)
	diag := make([]float64, a.Cols)
	x := make([]float64, a.Cols)
	if err := factorInPlace(qr, diag); err != nil {
		return nil, err
	}
	if err := solveFactored(qr, diag, rhs, x); err != nil {
		return nil, err
	}
	return x, nil
}

// factorInPlace is the allocation-free Householder QR factorization behind
// LeastSquares: it overwrites qr with the reflector vectors (lower triangle
// including the diagonal) and R's strict upper triangle, and writes R's
// diagonal into diag. The factors depend on qr alone, so one factorization
// serves any number of right-hand sides through solveFactored.
//
// factorInPlace followed by solveFactored performs exactly the floating-point
// operations of the historical single-pass kernel (which applied reflector k
// to the rhs right after computing it): reflector k reads only column k, which
// no later step modifies, so the results are bit-identical.
func factorInPlace(qr *Matrix, diag []float64) error {
	if qr.Rows < qr.Cols {
		return errors.New("nnls: underdetermined system (rows < cols)")
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
		// The reflector occupies the lower triangle including the diagonal
		// position, so R's diagonal (-norm) lives in a separate slice.
		diag[k] = -norm
	}
	return nil
}

// solveFactored solves min‖A·x − rhs‖₂ from factorInPlace's output: it applies
// the reflectors to rhs in order (destroying it) and back-substitutes into x
// (length qr.Cols).
//
// The apply is fused: the pass that adds reflector k's multiple to row i
// also accumulates reflector k+1's dot product over the updated row, in the
// same row order as a separate pass would, so each rhs element sees the same
// operations. The last reflector updates only rows below qr.Cols, the only
// ones back substitution reads; the rest of rhs is left partly applied.
func solveFactored(qr *Matrix, diag, rhs, x []float64) error {
	if len(rhs) != qr.Rows {
		return errors.New("nnls: rhs length mismatch")
	}
	m, n := qr.Rows, qr.Cols
	if n == 0 {
		return nil
	}
	d := qr.Data[:m*n]
	var s float64 // reflector k's dot product with rhs
	for i := 0; i < m; i++ {
		s += d[i*n] * rhs[i]
	}
	for k := 0; k < n-1; k++ {
		s = -s / d[k*n+k]
		rhs[k] += s * d[k*n+k]
		var next float64
		for i := k + 1; i < m; i++ {
			rhs[i] += s * d[i*n+k]
			next += d[i*n+k+1] * rhs[i]
		}
		s = next
	}
	k := n - 1
	s = -s / d[k*n+k]
	rhs[k] += s * d[k*n+k]

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
