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
	if a.Rows < a.Cols {
		return nil, errors.New("nnls: underdetermined system (rows < cols)")
	}
	var f qr
	f.reset(a.Rows, a.Cols)
	for c := 0; c < a.Cols; c++ {
		if !f.push(a, c) {
			return nil, ErrRankDeficient
		}
	}
	if !f.fullRank(a.Cols) {
		return nil, ErrRankDeficient
	}
	rhs := make([]float64, len(b))
	copy(rhs, b)
	x := make([]float64, a.Cols)
	if err := f.solve(a.Cols, rhs, x); err != nil {
		return nil, err
	}
	return x, nil
}

// qr is the allocation-free Householder QR factorization of a list of
// columns, stored column by column so that it grows and shrinks by column
// prefix. Reflector k is computed from column k once reflectors 0..k-1 have
// been applied to it, and no later column changes it. So the factors of a
// prefix of a column list are the leading columns of the list's factors, and
// appending a column to a factored list costs one reflector: the new column
// takes the existing reflectors in order, then yields its own. Either way
// every floating-point operation is the one a fresh factorization of exactly
// that list performs, so the solutions are the same bits.
type qr struct {
	m int // rows
	// v holds column k at v[k*m:(k+1)*m]: R's entries above row k, then the
	// reflector vector from row k down.
	v    []float64
	diag []float64 // R's diagonal
	// norm[k] is |diag[k]| and amax[k] the largest |a_ik| of the original
	// column: a list's rank check reads them, since its tolerance scales with
	// the largest entry over all of the list's columns.
	norm []float64
	amax []float64
	cols []int // the source column behind each factored column
}

// reset drops every factored column and makes room for up to n columns of m
// rows. Buffers grow geometrically and are otherwise reused.
func (f *qr) reset(m, n int) {
	f.m = m
	if cap(f.v) < m*n {
		f.v = make([]float64, max(m*n, 2*cap(f.v)))
	}
	f.v = f.v[:cap(f.v)]
	if cap(f.diag) < n {
		f.diag = make([]float64, 0, n)
		f.norm = make([]float64, 0, n)
		f.amax = make([]float64, 0, n)
		f.cols = make([]int, 0, n)
	}
	f.truncate(0)
}

// truncate keeps the first p factored columns.
func (f *qr) truncate(p int) {
	f.diag, f.norm, f.amax, f.cols = f.diag[:p], f.norm[:p], f.amax[:p], f.cols[:p]
}

// rankTol is the tolerance under which a pivot column counts as numerically
// zero, for m rows whose largest absolute entry is scale.
func rankTol(scale float64, m int) float64 {
	return 2.2e-16 * scale * float64(m) * 16
}

// push factors column c of a (a.Rows rows, the m of the last reset) as the
// next column. It reports false, leaving the factors as they were, when the
// list would have more columns than rows or the column is numerically
// dependent on those before it: a fresh factorization of any list that
// starts with the current columns and c fails there too, since a longer
// list's tolerance is no smaller.
func (f *qr) push(a *Matrix, c int) bool {
	m, k := f.m, len(f.cols)
	if k >= m {
		return false
	}
	col := f.v[k*m : (k+1)*m]
	var amax float64
	for i := range col {
		v := a.Data[i*a.Cols+c]
		col[i] = v
		if av := math.Abs(v); av > amax {
			amax = av
		}
	}
	// Apply the reflectors of the earlier columns, in order.
	for j := 0; j < k; j++ {
		r := f.v[j*m : (j+1)*m]
		var s float64
		for i := j; i < m; i++ {
			s += r[i] * col[i]
		}
		s = -s / r[j]
		for i := j; i < m; i++ {
			col[i] += s * r[i]
		}
	}
	// Compute the Householder reflector for column k.
	var norm float64
	for i := k; i < m; i++ {
		norm = math.Hypot(norm, col[i])
	}
	if norm <= rankTol(max(f.scale(k), amax), m) {
		return false
	}
	f.norm = append(f.norm, norm)
	f.amax = append(f.amax, amax)
	if col[k] < 0 {
		norm = -norm
	}
	for i := k; i < m; i++ {
		col[i] /= norm
	}
	col[k]++
	// The reflector occupies column k from the diagonal down, so R's
	// diagonal (-norm) lives in a separate slice.
	f.diag = append(f.diag, -norm)
	f.cols = append(f.cols, c)
	return true
}

// scale is the largest absolute entry over the first p original columns.
func (f *qr) scale(p int) float64 {
	var s float64
	for _, v := range f.amax[:p] {
		if v > s {
			s = v
		}
	}
	return s
}

// fullRank reports whether the first p factored columns, as a list of their
// own, pass the rank check a fresh factorization of that list makes.
func (f *qr) fullRank(p int) bool {
	tol := rankTol(f.scale(p), f.m)
	for _, n := range f.norm[:p] {
		if n <= tol {
			return false
		}
	}
	return true
}

// solve solves min‖A·x − rhs‖₂ for the first p factored columns: it applies
// their reflectors to rhs in order (destroying it) and back-substitutes into
// x[:p].
//
// The apply is fused: the pass that adds reflector k's multiple to row i
// also accumulates reflector k+1's dot product over the updated row, in the
// same row order as a separate pass would, so each rhs element sees the same
// operations. The last reflector updates only rows below p, the only ones
// back substitution reads; the rest of rhs is left partly applied.
func (f *qr) solve(p int, rhs, x []float64) error {
	if p == 0 {
		return nil
	}
	m, v := f.m, f.v
	var s float64 // reflector k's dot product with rhs
	for i, r := range v[:m] {
		s += r * rhs[i]
	}
	for k := 0; k < p-1; k++ {
		r, next := v[k*m:(k+1)*m], v[(k+1)*m:(k+2)*m]
		s = -s / r[k]
		rhs[k] += s * r[k]
		var t float64
		for i := k + 1; i < m; i++ {
			rhs[i] += s * r[i]
			t += next[i] * rhs[i]
		}
		s = t
	}
	k := p - 1
	s = -s / v[k*m+k]
	rhs[k] += s * v[k*m+k]

	// Back substitution on R (above the diagonal in v, diagonal in diag).
	for k := p - 1; k >= 0; k-- {
		s := rhs[k]
		for j := k + 1; j < p; j++ {
			s -= v[j*m+k] * x[j]
		}
		d := f.diag[k]
		if d == 0 || math.Abs(d) < 1e-300 {
			return ErrRankDeficient
		}
		x[k] = s / d
	}
	return nil
}
