package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(0)          // lands in the first bucket
	h.Observe(1e-6)       // exactly the first bound
	h.Observe(3e-6)       // (2µs, 4µs]
	h.Observe(1e-3)       // ~1ms
	h.Observe(2.0)        // seconds range
	h.Observe(1e9)        // overflow bucket
	h.Observe(-1)         // dropped
	h.Observe(math.NaN()) // dropped

	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Max() != 1e9 {
		t.Errorf("max = %g", h.Max())
	}
	le, _ := h.Cumulative()
	if got := le[0]; got != 2 {
		t.Errorf("le=1µs cumulative = %d, want 2", got)
	}
	if got := le[HistBuckets]; got != 6 {
		t.Errorf("+Inf cumulative = %d, want count 6", got)
	}
	// p50 of 6 obs → 3rd: 3µs bucket, upper bound 4µs.
	if got := h.Quantile(0.5); got != 4e-6 {
		t.Errorf("p50 = %g, want 4e-6", got)
	}
	// Tail quantile is clamped to max.
	if got := h.Quantile(1); got != 1e9 {
		t.Errorf("p100 = %g, want clamp to max", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-5) // 10µs .. 10ms
	}
	prev := 0.0
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		q := h.Quantile(p)
		if q < prev {
			t.Errorf("quantile(%g) = %g < quantile before it %g", p, q, prev)
		}
		prev = q
	}
	// p50 of uniform 10µs..10ms is ~5ms; log buckets bound it within 2×.
	if q := h.Quantile(0.5); q < 2.5e-3 || q > 1e-2 {
		t.Errorf("p50 = %g, want within a bucket of 5ms", q)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	if got := h.Summary(); got != "n=0" {
		t.Errorf("empty summary = %q", got)
	}
	h.Observe(5e-4)
	s := h.Summary()
	for _, want := range []string{"n=1", "p50=", "p95=", "max="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestBucketBound(t *testing.T) {
	if BucketBound(0) != 1e-6 {
		t.Errorf("bound(0) = %g", BucketBound(0))
	}
	if BucketBound(10) != 1e-6*1024 {
		t.Errorf("bound(10) = %g", BucketBound(10))
	}
	if !math.IsInf(BucketBound(HistBuckets), 1) {
		t.Errorf("bound(%d) should be +Inf", HistBuckets)
	}
}

// TestHistogramReadersAgree checks every reader against a reference count
// of the same observations: buckets, count, sum, max and quantiles.
func TestHistogramReadersAgree(t *testing.T) {
	var h Histogram
	obs := []float64{0, 1e-7, 1e-6, 3e-6, 0.001, 0.02, 0.5, 3, 100, 1e5}
	var ref [HistBuckets + 1]uint64
	sum := 0.0
	for _, v := range obs {
		h.Observe(v)
		i := 0
		for i < HistBuckets && v > BucketBound(i) {
			i++
		}
		ref[i]++
		sum += v
	}
	h.Observe(-1) // invalid observations are dropped
	h.Observe(math.NaN())

	le, gotSum := h.Cumulative()
	var c uint64
	for i := range ref {
		c += ref[i]
		if le[i] != c {
			t.Fatalf("bucket %d cumulative %d, want %d", i, le[i], c)
		}
	}
	if h.Count() != uint64(len(obs)) || le[HistBuckets] != h.Count() {
		t.Fatalf("count %d, +Inf bucket %d, want %d", h.Count(), le[HistBuckets], len(obs))
	}
	if math.Abs(gotSum-sum) > 1e-9 || h.Sum() != gotSum {
		t.Fatalf("sum %g (Sum() %g), want %g", gotSum, h.Sum(), sum)
	}
	if h.Max() != 1e5 {
		t.Fatalf("max %g, want 1e5", h.Max())
	}
	// p50 of 10 observations is the 5th, 1ms, in bucket (512µs, 1024µs].
	if got, want := h.Quantile(0.5), BucketBound(10); got != want {
		t.Fatalf("p50 = %g, want %g", got, want)
	}
	// p90 is 100s, in the +Inf bucket, so it is clamped to max.
	if got := h.Quantile(0.9); got != 1e5 {
		t.Fatalf("p90 = %g, want clamp to max 1e5", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
	n := float64(workers * per)
	wantSum := 1e-6 * n * (n - 1) / 2
	if math.Abs(h.Sum()-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum %g, want %g", h.Sum(), wantSum)
	}
	if want := (n - 1) * 1e-6; h.Max() != want {
		t.Fatalf("max %g, want %g", h.Max(), want)
	}
}
