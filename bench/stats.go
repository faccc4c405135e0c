package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit and the number of samples
// behind it (0 when the value is a count or a ratio, not a sampled timing).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice, NaN when it is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantiles are the candidates tailQuantile chooses from, lowest first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it, so a reported tail is never one or two outliers. With
// fewer than twenty samples only the median qualifies.
func tailQuantile(n int) float64 {
	best := tailQuantiles[0]
	for _, q := range tailQuantiles {
		// Samples strictly beyond the nearest-rank q-quantile.
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// sortedCopy returns xs ascending without touching the caller's order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeEach runs fn n times and returns each call's wall time in
// microseconds. batch > 1 times that many calls per sample and divides, for
// calls too short for the clock.
func timeEach(n, batch int, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn()
		}
		out[i] = us(time.Since(t0)) / float64(batch)
	}
	return out
}

// The host is shared: a spin loop on it runs 15 to 20 % slow for a second
// or so every few seconds, and never fast. Interference only adds time, so
// the steadiest estimate of what the program costs is taken from the quiet
// side of the samples, in one of two ways.

// fastest is for deterministic work executed several times identically (the
// rounds of one seed's daemon, the intervals of one trace's replay): element
// i of the result is the fastest of the executions' i-th operations. A slow
// spell has to hit the same operation in every execution to show.
func fastest(execs [][]float64) []float64 {
	n := len(execs[0])
	for _, x := range execs {
		n = min(n, len(x))
	}
	out := append([]float64(nil), execs[0][:n]...)
	for _, x := range execs[1:] {
		for i := range out {
			out[i] = min(out[i], x[i])
		}
	}
	return out
}

// quietQuantile is how far into the windows, from their quiet end,
// quietLow and quietHigh read: the third of twenty.
const quietQuantile = 0.15

// quietLow and quietHigh are for closed-loop traffic, which no two runs
// repeat: the run is cut into windows and the end-to-end figure is the
// window quietQuantile of the way in from the quiet end (low for a latency,
// high for a rate). It holds as long as that share of the windows ran
// undisturbed, where a median needs half; of ten estimators tried on eight
// runs per mix it moved least from run to run.
func quietLow(perWindow []float64) float64 {
	return percentile(sortedCopy(perWindow), quietQuantile)
}

func quietHigh(perWindow []float64) float64 {
	neg := make([]float64, len(perWindow))
	for i, v := range perWindow {
		neg[i] = -v
	}
	return -quietLow(neg)
}
