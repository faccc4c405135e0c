package nnls

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// solveBoth runs one solve on the optimized workspace and on the verbatim
// pre-factor-cache reference, and requires Float64bits-identical solutions,
// residuals and error outcomes.
func solveBoth(t *testing.T, label string, ws *Workspace, ref *refWorkspace, a *Matrix, b []float64) {
	t.Helper()
	x, res, err := ws.Solve(a, b)
	rx, rres, rerr := ref.Solve(a, b)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%s: err %v, reference err %v", label, err, rerr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(res) != math.Float64bits(rres) {
		t.Fatalf("%s: residual %v (%#x), reference %v (%#x)",
			label, res, math.Float64bits(res), rres, math.Float64bits(rres))
	}
	for j := range rx {
		if math.Float64bits(x[j]) != math.Float64bits(rx[j]) {
			t.Fatalf("%s: x[%d] = %v, reference %v (x %v, reference %v)", label, j, x[j], rx[j], x, rx)
		}
	}
}

// lossDesign is a lossfit-shaped problem: rows [k, 1] and a noisy loss curve
// whose transform 1/(l − β2) is the rhs for each asymptote candidate.
func lossDesign(r *rand.Rand, m int) (*Matrix, []float64) {
	a := NewMatrix(m, 2)
	loss := make([]float64, m)
	b0, b1, b2 := 0.05+0.3*r.Float64(), 0.5+2*r.Float64(), 0.2*r.Float64()
	for i := range loss {
		k := float64(i + 1)
		a.Set(i, 0, k)
		a.Set(i, 1, 1)
		loss[i] = (1/(b0*k+b1) + b2) * (1 + 0.002*r.NormFloat64())
	}
	return a, loss
}

func minOf(v []float64) float64 {
	lo := math.Inf(1)
	for _, x := range v {
		lo = math.Min(lo, x)
	}
	return lo
}

// TestFactorCacheMatchesReference drives one optimized workspace and one
// reference workspace through the same seeded solve sequences — each kind of
// sequence a factor cache could get wrong — and requires every solve to agree
// bit for bit. The workspaces are shared across seeds and sequences, so stale
// cache state from one sequence meets the next.
func TestFactorCacheMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	ref := new(refWorkspace)
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))

		// 41-rhs β2 sweep on one design matrix: a candidate that ends on the
		// previous candidate's passive set reuses its factors. (Large β2 can
		// push β1 to the bound, which changes the set once.)
		a, loss := lossDesign(r, 20+r.Intn(200))
		b := make([]float64, a.Rows)
		var prev [2]bool
		for g := 0; g <= 40; g++ {
			b2 := minOf(loss) * float64(g) / 41
			for i, l := range loss {
				b[i] = 1 / (l - b2)
			}
			before := ws.factorings
			solveBoth(t, "sweep", ws, ref, a, b)
			now := [2]bool{ws.warm[0], ws.warm[1]}
			if g > 0 && now == prev && ws.factorings != before {
				t.Fatalf("seed %d: candidate %d kept passive set %v yet refactored", seed, g, now)
			}
			prev = now
		}

		// The design matrix grows by one row per refit.
		for step := 0; step < 10; step++ {
			k := float64(a.Rows + 1)
			a.Data = append(a.Data, k, 1)
			a.Rows++
			b = append(b, 1/(loss[len(loss)-1]*(1-0.001*float64(step+1))))
			loss = append(loss, 0)
			solveBoth(t, "grow", ws, ref, a, b)
		}

		// One entry moved by one ulp must miss the cache.
		i := r.Intn(len(a.Data))
		a.Data[i] = math.Nextafter(a.Data[i], math.Inf(1))
		before := ws.factorings
		solveBoth(t, "ulp", ws, ref, a, b)
		if ws.factorings == before {
			t.Fatalf("seed %d: a one-ulp change hit the factor cache", seed)
		}

		// +0 and −0 compare equal but are different matrices.
		g, rhs := randWellPosed(r)
		z := r.Intn(len(g.Data))
		g.Data[z] = 0
		solveBoth(t, "+0", ws, ref, g, rhs)
		g.Data[z] = math.Copysign(0, -1)
		before = ws.factorings
		solveBoth(t, "-0", ws, ref, g, rhs)
		if ws.factorings == before {
			t.Fatalf("seed %d: −0 hit the factor cache of +0", seed)
		}

		// Rank-deficient: a duplicated column, swept over several rhs.
		d, rhs := randWellPosed(r)
		dup := r.Intn(d.Cols - 1)
		for row := 0; row < d.Rows; row++ {
			d.Set(row, dup+1, d.At(row, dup))
		}
		for s := 0; s < 5; s++ {
			for row := range rhs {
				rhs[row] += 0.1 * r.NormFloat64()
			}
			solveBoth(t, "rank-deficient", ws, ref, d, rhs)
		}

		// A sweep whose solution crosses the orthant boundary partway, so the
		// passive set changes between rhs on one matrix.
		p, _ := randWellPosed(r)
		from, to := make([]float64, p.Cols), make([]float64, p.Cols)
		for j := range from {
			from[j] = 2 * r.Float64()
			to[j] = 2*r.Float64() - 1.5
		}
		rhs = make([]float64, p.Rows)
		firstPassive := make([]bool, p.Cols)
		changed := false
		for s := 0; s <= 20; s++ {
			f := float64(s) / 20
			for row := range rhs {
				var dot float64
				for j := 0; j < p.Cols; j++ {
					dot += p.At(row, j) * ((1-f)*from[j] + f*to[j])
				}
				rhs[row] = dot + 0.01*r.NormFloat64()
			}
			solveBoth(t, "passive-change", ws, ref, p, rhs)
			if s == 0 {
				copy(firstPassive, ws.warm[:p.Cols])
			} else {
				for j, v := range firstPassive {
					changed = changed || ws.warm[j] != v
				}
			}
		}
		if !changed {
			t.Fatalf("seed %d: the passive-change sweep never changed the passive set", seed)
		}
	}
}

// TestLeastSquaresMatchesReference pins the factor/apply split of the
// unconstrained solver, and its fused reflector apply, to the single-pass
// kernel bit for bit: random well-posed systems, then single-column, square
// and speedfit-shaped (4 and 5 columns) ones, where the fused apply's first
// and last reflectors coincide or leave no rows below the triangle.
func TestLeastSquaresMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	shapes := [][2]int{{1, 1}, {7, 1}, {64, 1}, {2, 2}, {4, 4}, {5, 5}, {9, 9},
		{5, 4}, {20, 4}, {144, 4}, {6, 5}, {25, 5}, {144, 5}}
	for trial := 0; trial < 100+10*len(shapes); trial++ {
		a, b := randWellPosed(r)
		if trial >= 100 {
			shape := shapes[(trial-100)%len(shapes)]
			a, b = NewMatrix(shape[0], shape[1]), make([]float64, shape[0])
			for i := range a.Data {
				a.Data[i] = r.NormFloat64()
			}
			for i := range b {
				b[i] = r.NormFloat64()
			}
		}
		x, err := LeastSquares(a, b)
		qr, rhs := a.Clone(), append([]float64(nil), b...)
		rx := make([]float64, a.Cols)
		rerr := refLstsqInPlace(qr, make([]float64, a.Cols), rhs, rx)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("trial %d: err %v, reference err %v", trial, err, rerr)
		}
		for j := range rx {
			if err == nil && math.Float64bits(x[j]) != math.Float64bits(rx[j]) {
				t.Fatalf("trial %d: x[%d] = %v, reference %v", trial, j, x[j], rx[j])
			}
		}
	}
}

// TestCoefMatchesSolve drives one workspace through Coef and another through
// Solve over the same seeded sequences (lossfit's β2 sweep on a growing
// design matrix, unrelated well-posed problems, rank-deficient ones and
// speedfit-shaped ones), and requires the same x bits and error outcomes at
// every solve: Coef is Solve minus the norm, with the same solver state.
func TestCoefMatchesSolve(t *testing.T) {
	coef, solve := NewWorkspace(), NewWorkspace()
	check := func(label string, a *Matrix, b []float64) {
		t.Helper()
		x, err := coef.Coef(a, b)
		sx, _, serr := solve.Solve(a, b)
		if (err == nil) != (serr == nil) {
			t.Fatalf("%s: Coef err %v, Solve err %v", label, err, serr)
		}
		if len(x) != len(sx) {
			t.Fatalf("%s: Coef returned %d coefficients, Solve %d", label, len(x), len(sx))
		}
		for j := range sx {
			if math.Float64bits(x[j]) != math.Float64bits(sx[j]) {
				t.Fatalf("%s: Coef x[%d] = %v, Solve %v", label, j, x[j], sx[j])
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, loss := lossDesign(r, 8+r.Intn(100))
		for step := 0; step < 5; step++ {
			b := make([]float64, a.Rows)
			for g := 0; g <= 40; g++ {
				b2 := minOf(loss) * float64(g) / 41
				for i, l := range loss {
					b[i] = 1 / (l - b2)
				}
				check("sweep", a, b)
			}
			k := float64(a.Rows + 1)
			a.Data = append(a.Data, k, 1)
			a.Rows++
			loss = append(loss, loss[len(loss)-1]*(1-0.001*r.Float64()))
		}
		for i := 0; i < 5; i++ {
			g, rhs := randWellPosed(r)
			check("well-posed", g, rhs)
			dup := r.Intn(g.Cols - 1)
			for row := 0; row < g.Rows; row++ {
				g.Set(row, dup+1, g.At(row, dup))
			}
			check("rank-deficient", g, rhs)
		}
		for _, cols := range []int{4, 5} {
			s := NewMatrix(cols+r.Intn(140), cols)
			for i := range s.Data {
				s.Data[i] = r.Float64()
			}
			rhs := make([]float64, s.Rows)
			for i := range rhs {
				rhs[i] = 2*r.Float64() - 0.5
			}
			check("speedfit-shaped", s, rhs)
		}
	}
	check("empty", NewMatrix(3, 0), []float64{1, 2, 3})
	check("rhs mismatch", NewMatrix(3, 2), []float64{1, 2})
}

// TestPrefixCacheMatchesReference walks one workspace's passive subproblem
// and the reference's through the column lists Lawson–Hanson visits — {0},
// then {0, 1}, back to {0}, over to {1} — and longer walks on three columns,
// and requires every solve to agree bit for bit, failures included. The
// matrices are lossfit-shaped, random, underdetermined, and two rank edges:
// a column that passes the rank check alone but fails it next to a much
// larger column (its tolerance scales with the list's largest entry), and a
// column that passes alone but is dependent on the column before it.
func TestPrefixCacheMatchesReference(t *testing.T) {
	ws, ref := NewWorkspace(), new(refWorkspace)
	solved := map[string]int{}
	check := func(label string, a *Matrix, b []float64, cols []int) {
		t.Helper()
		passive := make([]bool, a.Cols)
		for _, c := range cols {
			passive[c] = true
		}
		ws.ensure(a.Rows, a.Cols)
		ws.rekey(a, keyByValue)
		ref.ensure(a.Rows, a.Cols)
		z, ok := ws.solvePassive(a, b, passive)
		rz, rok := ref.solvePassive(a, b, passive)
		if ok != rok {
			t.Fatalf("%s %v: ok %v, reference ok %v", label, cols, ok, rok)
		}
		if ok {
			solved[fmt.Sprint(label, cols)]++
			for j := 0; j < a.Cols; j++ {
				if math.Float64bits(z[j]) != math.Float64bits(rz[j]) {
					t.Fatalf("%s %v: z[%d] = %v, reference %v", label, cols, j, z[j], rz[j])
				}
			}
		}
	}
	walk2 := [][]int{{0}, {0, 1}, {0}, {1}, {0, 1}, {1}, {0}, {0, 1}, {0, 1}}
	walk3 := [][]int{{0}, {0, 1}, {0, 1, 2}, {0, 2}, {0}, {1, 2}, {0, 1, 2}, {0, 1}, {2}, {0, 2}}
	randMatrix := func(r *rand.Rand, m, n int) (*Matrix, []float64) {
		a, b := NewMatrix(m, n), make([]float64, m)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		return a, b
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))

		a, loss := lossDesign(r, 5+r.Intn(100))
		b := make([]float64, a.Rows)
		for i, l := range loss {
			b[i] = 1 / (l - 0.5*minOf(loss))
		}
		before := ws.factorings
		for _, cols := range walk2[:3] {
			check("loss", a, b, cols)
		}
		if got := ws.factorings - before; got != 2 {
			t.Fatalf("seed %d: {0} → {0, 1} → {0} factored %d columns, want 2", seed, got)
		}
		for _, cols := range walk2[3:] {
			check("loss", a, b, cols)
		}

		g, gb := randMatrix(r, 3+r.Intn(30), 3)
		for _, cols := range walk3 {
			check("random", g, gb, cols)
		}
		u, ub := randMatrix(r, 1+r.Intn(2), 3)
		for _, cols := range walk3 {
			check("underdetermined", u, ub, cols)
		}

		// Column 0 is ~1e-15 against column 1's ~1.
		tiny, tb := randMatrix(r, 10+r.Intn(40), 2)
		for i := 0; i < tiny.Rows; i++ {
			tiny.Set(i, 0, 1e-15*tiny.At(i, 0))
		}
		for _, cols := range walk2 {
			check("tiny", tiny, tb, cols)
		}

		// Column 1 is 3·column 0 plus noise far under the rank tolerance.
		dep, db := randMatrix(r, 10+r.Intn(40), 2)
		for i := 0; i < dep.Rows; i++ {
			dep.Set(i, 1, 3*dep.At(i, 0)+1e-18*dep.At(i, 1))
		}
		for _, cols := range walk2 {
			check("dependent", dep, db, cols)
		}
	}
	// Each rank edge must really sit on the edge: solvable alone, not as a pair.
	for _, label := range []string{"tiny", "dependent"} {
		if solved[label+"[0]"] == 0 || solved[label+"[1]"] == 0 || solved[label+"[0 1]"] != 0 {
			t.Errorf("%s: solved {0} %d, {1} %d, {0, 1} %d times; want >0, >0, 0", label,
				solved[label+"[0]"], solved[label+"[1]"], solved[label+"[0 1]"])
		}
	}
}
