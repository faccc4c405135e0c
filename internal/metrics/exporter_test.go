package metrics

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/obs"
)

// TestExporterIdempotentPreamble is the regression test for repeated export:
// a scrape handler that calls WritePrometheus (or any Exporter method) more
// than once per response must emit each family's # HELP/# TYPE exactly once.
func TestExporterIdempotentPreamble(t *testing.T) {
	r := NewRecorder()
	r.Arrive(1, 0)
	r.ObserveAllocateDuration(3e-5)

	var buf bytes.Buffer
	e := NewExporter(&buf)
	r.WritePrometheus(e)
	r.WritePrometheus(e)
	e.Gauge("optimus_jobs_arrived_total", "Jobs submitted to the scheduler.", 1)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"optimus_jobs_arrived_total",
		"optimus_intervals_total",
		"optimus_allocate_duration_seconds",
	} {
		for _, preamble := range []string{"# HELP " + family + " ", "# TYPE " + family + " "} {
			if got := strings.Count(out, preamble); got != 1 {
				t.Errorf("%q appears %d times, want exactly 1:\n%s", preamble, got, out)
			}
		}
	}
	// Samples themselves are repeated — only the headers deduplicate.
	if got := strings.Count(out, "optimus_jobs_arrived_total 1"); got != 3 {
		t.Errorf("sample emitted %d times, want 3", got)
	}
}

// TestWritePrometheusHistograms checks the histogram family shape: all
// buckets cumulative, terminal +Inf equal to _count, and empty families
// skipped.
func TestWritePrometheusHistograms(t *testing.T) {
	r := NewRecorder()
	r.ObserveIntervalDuration(0.002)
	r.ObserveIntervalDuration(0.5)
	r.ObserveRefitDuration(1e-4)

	var buf bytes.Buffer
	e := NewExporter(&buf)
	r.WritePrometheus(e)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if !strings.Contains(out, "# TYPE optimus_interval_duration_seconds histogram") {
		t.Errorf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `optimus_interval_duration_seconds_bucket{le="+Inf"} 2`) {
		t.Errorf("missing +Inf bucket with full count:\n%s", out)
	}
	if !strings.Contains(out, "optimus_interval_duration_seconds_count 2") {
		t.Errorf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, "optimus_interval_duration_seconds_sum 0.502") {
		t.Errorf("missing _sum:\n%s", out)
	}
	if !strings.Contains(out, `optimus_refit_duration_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("missing refit histogram:\n%s", out)
	}
	// Empty histograms stay silent.
	if strings.Contains(out, "optimus_place_duration_seconds") {
		t.Errorf("empty histogram exported:\n%s", out)
	}

	// Bucket counts must be monotonically non-decreasing.
	prev := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "optimus_interval_duration_seconds_bucket") {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		prev = n
	}
	if prev != 2 {
		t.Errorf("final bucket count %d, want 2", prev)
	}
}

// failWriter accepts n writes, then fails every one after.
type failWriter struct{ n, calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestExporterStickyErr checks that the first write error stops the
// exposition: Err reports it and no later method writes again.
func TestExporterStickyErr(t *testing.T) {
	w := &failWriter{n: 2}
	e := NewExporter(w)
	e.Counter("a_total", "A.", 1) // preamble + sample: 2 writes
	if e.Err() != nil {
		t.Fatalf("error after %d good writes: %v", w.calls, e.Err())
	}
	e.Gauge("b", "B.", 2) // preamble write fails
	e.Info("c", "C.", [][2]string{{"k", "v"}})
	var h obs.Histogram
	h.Observe(1)
	e.Histogram("d", "D.", &h)
	if e.Err() == nil || e.Err().Error() != "disk full" {
		t.Fatalf("Err = %v, want the first write error", e.Err())
	}
	if w.calls != 3 {
		t.Fatalf("%d writes, want 3: nothing after the failure", w.calls)
	}
}
