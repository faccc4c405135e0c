// Package psys is a real, runnable parameter-server training framework — a
// compact stand-in for the MXNet substrate of §5. Workers compute SGD
// gradients over synthetic datasets and exchange parameters with servers via
// push/pull over pluggable transports (in-process or TCP/gob); training runs
// in synchronous or asynchronous mode (§2.2); the framework implements the
// paper's system mechanisms end to end: HDFS-style chunk (re)assignment
// (§5.1), straggler detection and replacement (§5.2), parameter-block
// placement with PAA or the MXNet default (§5.3), and checkpoint-based
// elastic scaling (§5.4).
package psys

import (
	"fmt"
	"math"
	"math/rand"
)

// Batch is one mini-batch of training examples.
type Batch struct {
	X [][]float64 // feature rows
	Y []float64   // labels/targets
}

// Len returns the number of examples in the batch.
func (b Batch) Len() int { return len(b.Y) }

// Model is a trainable objective: it evaluates the loss of a parameter
// vector on a batch and computes the gradient. Implementations must be
// stateless and safe for concurrent use.
type Model interface {
	// Dim is the length of the parameter vector.
	Dim() int
	// Loss evaluates the mean loss of params on the batch.
	Loss(params []float64, b Batch) float64
	// Gradient computes dLoss/dparams on the batch into grad (len Dim).
	Gradient(params, grad []float64, b Batch)
	// Name identifies the model in logs and checkpoints.
	Name() string
}

// LinearRegression is least-squares linear regression: loss = ½·mean((x·θ −
// y)²). Its SGD training loss follows the O(1/k) trend the §3.1 fitting
// model assumes.
type LinearRegression struct {
	Features int
}

// Dim implements Model.
func (m LinearRegression) Dim() int { return m.Features }

// Name implements Model.
func (m LinearRegression) Name() string { return "linreg" }

// Loss implements Model.
func (m LinearRegression) Loss(params []float64, b Batch) float64 {
	if b.Len() == 0 {
		return 0
	}
	var sum float64
	for i, x := range b.X {
		d := dot(x, params) - b.Y[i]
		sum += d * d
	}
	return sum / (2 * float64(b.Len()))
}

// Gradient implements Model.
func (m LinearRegression) Gradient(params, grad []float64, b Batch) {
	for i := range grad {
		grad[i] = 0
	}
	if b.Len() == 0 {
		return
	}
	inv := 1 / float64(b.Len())
	for i, x := range b.X {
		d := (dot(x, params) - b.Y[i]) * inv
		for j, xj := range x {
			grad[j] += d * xj
		}
	}
}

// LogisticRegression is binary logistic regression with log loss; labels
// must be 0 or 1.
type LogisticRegression struct {
	Features int
}

// Dim implements Model.
func (m LogisticRegression) Dim() int { return m.Features }

// Name implements Model.
func (m LogisticRegression) Name() string { return "logreg" }

// Loss implements Model.
func (m LogisticRegression) Loss(params []float64, b Batch) float64 {
	if b.Len() == 0 {
		return 0
	}
	var sum float64
	for i, x := range b.X {
		p := sigmoid(dot(x, params))
		p = clampProb(p)
		if b.Y[i] > 0.5 {
			sum += -math.Log(p)
		} else {
			sum += -math.Log(1 - p)
		}
	}
	return sum / float64(b.Len())
}

// Gradient implements Model.
func (m LogisticRegression) Gradient(params, grad []float64, b Batch) {
	for i := range grad {
		grad[i] = 0
	}
	if b.Len() == 0 {
		return
	}
	inv := 1 / float64(b.Len())
	for i, x := range b.X {
		d := (sigmoid(dot(x, params)) - b.Y[i]) * inv
		for j, xj := range x {
			grad[j] += d * xj
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// SyntheticRegression generates a linear-regression dataset y = X·θ* + noise
// with a deterministic seed, returning the examples and the ground-truth θ*.
func SyntheticRegression(n, features int, noise float64, seed int64) (Batch, []float64, error) {
	if n <= 0 || features <= 0 {
		return Batch{}, nil, fmt.Errorf("psys: invalid dataset shape %dx%d", n, features)
	}
	r := rand.New(rand.NewSource(seed))
	theta := make([]float64, features)
	for i := range theta {
		theta[i] = r.NormFloat64()
	}
	b := Batch{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		b.X[i] = x
		b.Y[i] = dot(x, theta) + noise*r.NormFloat64()
	}
	return b, theta, nil
}

// SyntheticData generates the seeded dataset a model trains on: labelled
// classes with label-flip rate noise for logistic regression, regression
// targets with Gaussian noise otherwise. The features match the model's
// input width.
func SyntheticData(m Model, n int, noise float64, seed int64) (data Batch, err error) {
	switch mm := m.(type) {
	case LogisticRegression:
		data, _, err = SyntheticClassification(n, mm.Features, noise, seed)
	case LinearRegression:
		data, _, err = SyntheticRegression(n, mm.Features, noise, seed)
	case MLP:
		data, _, err = SyntheticRegression(n, mm.In, noise, seed)
	default:
		err = fmt.Errorf("psys: no synthetic dataset for model %s", m.Name())
	}
	return data, err
}

// SyntheticClassification generates a linearly separable-ish logistic
// dataset with the given label noise.
func SyntheticClassification(n, features int, flip float64, seed int64) (Batch, []float64, error) {
	if n <= 0 || features <= 0 {
		return Batch{}, nil, fmt.Errorf("psys: invalid dataset shape %dx%d", n, features)
	}
	r := rand.New(rand.NewSource(seed))
	theta := make([]float64, features)
	for i := range theta {
		theta[i] = r.NormFloat64()
	}
	b := Batch{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		b.X[i] = x
		y := 0.0
		if sigmoid(dot(x, theta)) > 0.5 {
			y = 1
		}
		if r.Float64() < flip {
			y = 1 - y
		}
		b.Y[i] = y
	}
	return b, theta, nil
}
