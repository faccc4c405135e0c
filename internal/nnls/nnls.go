package nnls

// Solve finds x ≥ 0 minimizing ‖A·x − b‖₂ using the Lawson–Hanson active-set
// algorithm. It returns the solution and its residual norm.
//
// Solve is the convenience entry point: each call runs cold on a fresh
// Workspace, so the returned slice is caller-owned. Hot paths that solve
// related problems repeatedly should hold a Workspace and use its methods to
// reuse scratch buffers and warm-start from the previous active set.
func Solve(a *Matrix, b []float64) ([]float64, float64, error) {
	// The throwaway workspace never sees a second matrix, so it skips
	// copying the key.
	var ws Workspace
	return ws.solve(a, b, keyRebuilt)
}

func allPassive(passive []bool) bool {
	for _, p := range passive {
		if !p {
			return false
		}
	}
	return true
}

func allPositive(z []float64, passive []bool, tol float64) bool {
	for k, p := range passive {
		if p && z[k] <= tol {
			return false
		}
	}
	return true
}

func copyPassive(x, z []float64, passive []bool) {
	for k := range x {
		if passive[k] {
			x[k] = z[k]
		} else {
			x[k] = 0
		}
	}
}
