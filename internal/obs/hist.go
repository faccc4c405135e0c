package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// HistBuckets is the number of finite log-spaced buckets: upper bounds
// 1µs·2^i for i = 0..HistBuckets-1, i.e. 1µs up to ~33.6s, plus an implicit
// +Inf overflow bucket. Doubling buckets keep the relative quantile error
// under 2× across the whole range — plenty for latency triage — while the
// fixed array keeps Observe allocation-free.
const HistBuckets = 26

// BucketBound returns the upper bound (seconds, inclusive) of finite bucket
// i, or +Inf for i >= HistBuckets.
func BucketBound(i int) float64 {
	if i >= HistBuckets {
		return math.Inf(1)
	}
	return 1e-6 * float64(uint64(1)<<uint(i))
}

// Histogram is a log-bucketed latency histogram over seconds. The zero value
// is ready to use, and it is safe for concurrent use: Observe is a handful of
// atomic operations, so many goroutines (the optimusd API middleware,
// lossfit.FitAll's workers, the load harness's pool) record into one
// histogram with no lock. Every reader takes one load of the buckets and
// derives the count from it, so a reader's buckets and count always agree;
// sum and max may trail them by in-flight observations.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64 // +1 = overflow (+Inf) bucket
	sum    atomic.Uint64                  // Float64bits, accumulated by CAS
	max    atomic.Uint64                  // Float64bits, CAS-max
}

// Observe records one duration in seconds. Negative and NaN observations are
// dropped.
func (h *Histogram) Observe(seconds float64) {
	if math.IsNaN(seconds) || seconds < 0 {
		return
	}
	i := 0
	for i < HistBuckets && seconds > BucketBound(i) {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+seconds)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if seconds <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(seconds)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	le, _ := h.Cumulative()
	return le[HistBuckets]
}

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Max returns the largest observation in seconds.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.max.Load()) }

// Cumulative takes one load of the buckets: le[i] is the number of
// observations <= BucketBound(i) (Prometheus `le` semantics), so
// le[HistBuckets], the +Inf bucket, is the count. sum is read alongside.
func (h *Histogram) Cumulative() (le [HistBuckets + 1]uint64, sum float64) {
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		le[i] = c
	}
	return le, h.Sum()
}

// Quantile estimates the p-quantile (0 <= p <= 1) as the upper bound of the
// bucket containing it, clamped to Max so the tail never over-reports. NaN
// when empty.
func (h *Histogram) Quantile(p float64) float64 {
	le, _ := h.Cumulative()
	return quantile(&le, h.Max(), p)
}

// quantile reads the p-quantile off one Cumulative load whose maximum
// observation is hi.
func quantile(le *[HistBuckets + 1]uint64, hi, p float64) float64 {
	n := le[HistBuckets]
	if n == 0 {
		return math.NaN()
	}
	target := max(1, uint64(math.Ceil(p*float64(n))))
	for i, c := range le {
		if c >= target {
			return math.Min(BucketBound(i), hi)
		}
	}
	return hi
}

// Summary renders the standard latency digest.
func (h *Histogram) Summary() string {
	le, _ := h.Cumulative()
	hi := h.Max()
	if le[HistBuckets] == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
		le[HistBuckets], fmtDur(quantile(&le, hi, 0.5)), fmtDur(quantile(&le, hi, 0.95)),
		fmtDur(quantile(&le, hi, 0.99)), fmtDur(hi))
}

// fmtDur renders seconds with a unit matched to magnitude.
func fmtDur(sec float64) string {
	switch {
	case sec < 1e-3:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.3fs", sec)
	}
}
