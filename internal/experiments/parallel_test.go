package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// render prints a table to bytes for exact comparison.
func render(t *testing.T, id string, opt Options) []byte {
	t.Helper()
	tbl, err := Run(id, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	tbl.Print(&buf)
	return buf.Bytes()
}

// TestSerialParallelIdentical is the engine's golden determinism contract:
// the same seed must produce byte-identical tables whether the worker pool
// is serial or wide. Covers a sweep exhibit, the deduplicated error-injection
// sweep, the doubled-case straggler study, the shared-fault-schedule
// failures exhibit and the share-schedule mixed exhibit.
func TestSerialParallelIdentical(t *testing.T) {
	for _, id := range []string{"fig11", "fig15", "stragglers", "failures", "mixed"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := render(t, id, Options{Seed: 7, Parallel: 1})
			wide := render(t, id, Options{Seed: 7, Parallel: 8})
			if !bytes.Equal(serial, wide) {
				t.Errorf("serial and parallel output differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, wide)
			}
		})
	}
}

// TestForEachOrderStable checks that results land at their submission index
// no matter how the pool interleaves, for widths below, at and above n.
func TestForEachOrderStable(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 3, n, 2 * n} {
		out := make([]int, n)
		err := forEach(workers, n, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForEachFirstErrorByIndex checks the deterministic error contract: the
// lowest-index failure is reported regardless of completion order, and every
// index still runs.
func TestForEachFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	var ran int64
	err := forEach(4, 16, func(i int) error {
		atomic.AddInt64(&ran, 1)
		switch i {
		case 3:
			return errLow
		case 12:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Errorf("got error %v, want the lowest-index one (%v)", err, errLow)
	}
	if ran != 16 {
		t.Errorf("ran %d of 16 indices", ran)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := forEach(4, 0, func(int) error { return errors.New("boom") }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}

// TestRunCountAdvances checks the CLI's run accounting: executing an exhibit
// must raise the process-wide simulator-run counter.
func TestRunCountAdvances(t *testing.T) {
	before := RunCount()
	if _, err := Run("overhead", Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := RunCount() - before; got < 1 {
		t.Errorf("RunCount advanced by %d, want >= 1", got)
	}
}

// TestWorkersDefault pins the Options.Parallel semantics: zero means "use
// the machine", explicit widths are honored verbatim.
func TestWorkersDefault(t *testing.T) {
	if w := (Options{}).workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	for _, n := range []int{1, 2, 7} {
		if w := (Options{Parallel: n}).workers(); w != n {
			t.Errorf("Parallel=%d → workers %d", n, w)
		}
	}
}

// TestTestbedSweepMatchesSingleRuns cross-checks the engine against the
// direct path: a one-case sweep must reproduce exactly what hand-rolled
// serial sim.Run calls produce for the same seeds.
func TestTestbedSweepMatchesSingleRuns(t *testing.T) {
	opt := Options{Seed: 11, Parallel: 4}
	cases := []testbedCase{{policy: comparisonPolicies()[0]}}
	a, err := testbedSweep(opt, cases, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testbedSweep(Options{Seed: 11, Parallel: 1}, cases, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
		t.Errorf("parallel sweep %v != serial sweep %v", a, b)
	}
}
