package nnls

import (
	"bytes"
	"errors"
	"math"
	"unsafe"
)

// Workspace holds every scratch buffer one NNLS solve needs, so repeated
// solves — the steady state of the Optimus control loop, which refits the
// same loss and speed models every scheduling interval — allocate nothing
// after the first call.
//
// Beyond buffer reuse, a workspace warm-starts Lawson–Hanson from the
// previous solve's passive (free) set whenever the column count matches.
// The common caller pattern is "same problem plus one new observation row"
// (lossfit/speedfit refits after one Observe/Add), where the active set
// rarely changes: the warm path solves a single least-squares problem on the
// remembered passive set and, when that solution is strictly feasible,
// resumes the outer loop from it — usually terminating immediately with the
// KKT check instead of rebuilding the passive set one column at a time.
//
// A workspace also keeps the Householder QR factors of the passive column
// lists it solved, keyed by the matrix's value (bit for bit, never by
// pointer: callers refill one buffer). The factors grow and shrink by column
// prefix (see qr): a passive list that extends the factored one costs only
// the new columns' reflectors, and one that is a prefix of it costs none.
// Lawson–Hanson's usual walk on lossfit's [k, 1] design — {0}, then {0, 1},
// then back to {0} — thus factors each column once per matrix, and a solve
// on the same matrix with a new right-hand side (lossfit's β2 grid, 41 rhs
// against one design matrix) only applies the reflectors to the new rhs.
// Every solution is the bits a fresh factorization would yield.
//
// A Workspace is not safe for concurrent use. The zero value is ready to use.
type Workspace struct {
	// solver state
	x       []float64
	resid   []float64
	dual    []float64
	z       []float64
	passive []bool

	// passive-subproblem scratch
	cols   []int
	subRhs []float64
	subSol []float64

	// warm-start memory: the passive set of the previous successful solve.
	warm     []bool
	warmCols int
	hasWarm  bool

	// factor cache: key has the last matrix's shape and, when it was solved
	// by value, a copy of its values; keyTol is its automatic dual tolerance
	// (0 = not computed yet), and f holds the factors of its columns f.cols.
	key    Matrix
	keyTol float64
	f      qr
	// factorings counts the columns factored, one Householder reflector each;
	// tests observe cache hits with it.
	factorings int
}

// matrixKey says how a solve learns whether its matrix is the one the
// factor cache holds.
type matrixKey int

const (
	keyByValue   matrixKey = iota // compare it with the cached key, bit for bit
	keyRebuilt                    // the caller says it may differ: drop the cache
	keyUnchanged                  // the caller says it holds the last solve's values
)

// NewWorkspace returns an empty workspace. The zero value works too; the
// constructor exists for symmetry with the rest of the package.
func NewWorkspace() *Workspace { return &Workspace{} }

// Factorings reports how many columns the workspace has factored, one
// Householder reflector each, over its lifetime. A solve that reuses cached
// factors adds nothing, so the count shows what the factor cache saves.
func (ws *Workspace) Factorings() int { return ws.factorings }

// Reset drops the warm-start memory. Buffers are kept. Call it when the next
// problem is unrelated to the previous one (different model family, reused
// workspace across jobs) and a cold start is wanted. The factor cache stays:
// it is keyed by the matrix, so it never serves a different one.
func (ws *Workspace) Reset() { ws.hasWarm = false }

// Solve finds x ≥ 0 minimizing ‖A·x − b‖₂, reusing the workspace's
// buffers and warm-starting from the previous solve's passive set when the
// column counts match (row counts may differ — the passive set is a column
// property), and returns x with its residual norm. The returned solution
// slice is owned by the workspace and is only valid until the next solve;
// callers that retain it must copy.
func (ws *Workspace) Solve(a *Matrix, b []float64) ([]float64, float64, error) {
	return ws.solve(a, b, keyByValue)
}

// solve is Solve with the cache keyed as key says.
func (ws *Workspace) solve(a *Matrix, b []float64, key matrixKey) ([]float64, float64, error) {
	x, err := ws.coef(a, b, key)
	if err != nil {
		if err == errEmpty {
			return nil, Norm2(b), err
		}
		return nil, 0, err
	}
	return x, Norm2(ws.residInto(a, x, b)), nil
}

// Coef is Solve without the residual norm: the same solve, leaving the
// workspace in the same state, returning the same x bit for bit. Callers
// that never read the norm (lossfit's β2 grid measures its own residual in
// loss space) skip its O(rows) pass and per-row division.
func (ws *Workspace) Coef(a *Matrix, b []float64) ([]float64, error) {
	return ws.coef(a, b, keyByValue)
}

// CoefTracked is Coef for a caller that tracks its matrix's changes itself.
// rebuilt reports whether a's values may differ from those of the previous
// solve on this workspace; when it is false the solve skips comparing a,
// value by value, with the factor cache's key. The caller must be sure: a
// false rebuilt on a changed matrix solves with the old matrix's factors.
// lossfit's β2 grid, which rebuilds its design matrix only when the kept-row
// count changes, saves a 2n-float compare on each of its 41 candidates.
func (ws *Workspace) CoefTracked(a *Matrix, b []float64, rebuilt bool) ([]float64, error) {
	key := keyUnchanged
	if rebuilt {
		key = keyRebuilt
	}
	return ws.coef(a, b, key)
}

var errEmpty = errors.New("nnls: empty matrix")

// coef is the one solver body behind Solve, Coef and CoefTracked. Its
// dual-feasibility tolerance is autoTol's, and it stops after 3n+30 outer
// iterations.
func (ws *Workspace) coef(a *Matrix, b []float64, key matrixKey) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, errors.New("nnls: rhs length mismatch")
	}
	n := a.Cols
	if n == 0 {
		return nil, errEmpty
	}
	ws.ensure(a.Rows, n)
	ws.rekey(a, key)

	if ws.keyTol == 0 { // not yet computed for this matrix
		ws.keyTol = autoTol(a)
	}
	tol := ws.keyTol
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
		if allPassive(passive) {
			break // no active column left for the KKT check to pick
		}
		// Dual vector w = Aᵀ(b − A·x).
		w := ws.dualInto(a, x, b, passive)

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
	return x, nil
}

// ensure sizes every buffer for an m×n problem, growing only when needed.
func (ws *Workspace) ensure(m, n int) {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
		ws.dual = make([]float64, n)
		ws.z = make([]float64, n)
		ws.subSol = make([]float64, n)
		ws.cols = make([]int, 0, n)
		ws.passive = make([]bool, n)
		w := make([]bool, n)
		copy(w, ws.warm)
		ws.warm = w
	}
	// Row buffers grow geometrically: a refit usually sees one more row than
	// the last, and exact sizing would reallocate them on every refit.
	if cap(ws.resid) < m {
		c := max(m, 2*cap(ws.resid))
		ws.resid = make([]float64, c)
		ws.subRhs = make([]float64, c)
	}
}

// autoTol is the scale-aware dual-feasibility tolerance, mirroring the
// classical implementation. It is never zero.
func autoTol(a *Matrix) float64 {
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
	return tol
}

// rekey makes a the cache key. Under keyByValue a matrix equal to the key
// bit for bit keeps the cached factors and tolerance and any other matrix
// drops them (+0 and −0 differ, so do NaNs with different payloads). The
// other modes take the caller's word, except that a matrix whose shape
// differs from the key's is always a new one.
func (ws *Workspace) rekey(a *Matrix, key matrixKey) {
	data := a.Data[:a.Rows*a.Cols]
	if ws.key.Rows == a.Rows && ws.key.Cols == a.Cols &&
		(key == keyUnchanged || key == keyByValue && sameBits(ws.key.Data, data)) {
		return
	}
	ws.f.reset(a.Rows, a.Cols)
	ws.keyTol = 0
	ws.key.Rows, ws.key.Cols = a.Rows, a.Cols
	if key == keyByValue {
		ws.key.Data = append(ws.key.Data[:0], data...)
	} else {
		ws.key.Data = ws.key.Data[:0] // no values: a later by-value solve misses
	}
}

// sameBits reports whether x and y hold the same float64 bit patterns, as
// one memory compare over their storage.
func sameBits(x, y []float64) bool {
	return len(x) == len(y) && bytes.Equal(float64Bytes(x), float64Bytes(y))
}

// float64Bytes views v's storage as bytes, without copying.
func float64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// residInto computes b − a·x into the workspace residual buffer.
func (ws *Workspace) residInto(a *Matrix, x, b []float64) []float64 {
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

// dualInto computes aᵀ·(b − a·x) into the workspace dual buffer, for the
// non-passive columns only: the KKT pick reads nothing else, so passive
// entries are left stale. Each entry sums its rows in order, as the full
// product does.
func (ws *Workspace) dualInto(a *Matrix, x, b []float64, passive []bool) []float64 {
	r := ws.residInto(a, x, b)
	n := a.Cols
	out := ws.dual[:n]
	for j, p := range passive {
		if p {
			continue
		}
		var s float64
		for i, ri := range r {
			s += a.Data[i*n+j] * ri
		}
		out[j] = s
	}
	return out
}

// solvePassive solves the unconstrained least-squares problem restricted to
// the passive columns, returning a full-length workspace-owned vector with
// zeros elsewhere. It keeps the cached factors' longest common prefix with
// the passive column list and factors only the columns past it.
func (ws *Workspace) solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, bool) {
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
	f := &ws.f
	p := 0
	for p < len(cols) && p < len(f.cols) && f.cols[p] == cols[p] {
		p++
	}
	if p < len(cols) {
		f.truncate(p)
		for _, c := range cols[p:] {
			ws.factorings++
			if !f.push(a, c) {
				return nil, false
			}
		}
	}
	nc := len(cols)
	if !f.fullRank(nc) {
		return nil, false
	}
	rhs := ws.subRhs[:a.Rows]
	copy(rhs, b)
	sol := ws.subSol[:nc]
	if err := f.solve(nc, rhs, sol); err != nil {
		return nil, false
	}
	for jj, c := range cols {
		z[c] = sol[jj]
	}
	return z, true
}
