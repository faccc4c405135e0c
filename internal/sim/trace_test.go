package sim

import (
	"testing"

	"optimus/internal/obs"
)

// TestRunTraced checks the observability contract of a traced run: one
// "interval" span tree per scheduling round (with fit/allocate/place/deploy
// children and the instrumented kernels below them), a complete per-job
// grant history, and non-empty latency histograms.
func TestRunTraced(t *testing.T) {
	tr := obs.NewTracer(obs.DefaultSpanBuffer)
	au := obs.NewAuditLog(obs.DefaultAuditBuffer)
	cfg := testbedConfig(OptimusPolicy(), smallMix(4, 7))
	cfg.Trace = tr
	cfg.Audit = au
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals == 0 {
		t.Fatal("no intervals executed")
	}

	spans := tr.Spans()
	byName := map[string]int{}
	roots := 0
	for _, s := range spans {
		byName[s.Name]++
		if s.Parent == 0 {
			roots++
		}
		if s.Dur < 0 {
			t.Errorf("span %q left open", s.Name)
		}
	}
	if byName["interval"] != res.Intervals {
		t.Errorf("interval spans = %d, want one per round (%d)", byName["interval"], res.Intervals)
	}
	if roots != byName["interval"] {
		t.Errorf("roots = %d, want every root to be an interval span", roots)
	}
	for _, phase := range []string{"fit", "allocate", "place", "deploy"} {
		if byName[phase] != res.Intervals {
			t.Errorf("%s spans = %d, want %d", phase, byName[phase], res.Intervals)
		}
	}
	// The instrumented policy emits kernel spans beneath the phase spans.
	if byName["alloc-kernel"] != res.Intervals {
		t.Errorf("alloc-kernel spans = %d, want %d", byName["alloc-kernel"], res.Intervals)
	}
	if byName["place-kernel"] == 0 {
		t.Error("no place-kernel spans")
	}

	// Audit: every completed job has a grant history starting at the seed,
	// stamped with a valid round.
	for id := range res.JCTs {
		evs := au.Grants(id)
		if len(evs) == 0 {
			t.Errorf("job %d: no grant events", id)
			continue
		}
		if evs[0].Kind != obs.GrantSeed {
			t.Errorf("job %d: first grant %q", id, evs[0].Kind)
		}
		for _, ev := range evs {
			if ev.Round < 1 || ev.Round > res.Intervals {
				t.Errorf("job %d: grant stamped round %d of %d", id, ev.Round, res.Intervals)
			}
		}
	}
	if evs := au.Places(-1); len(evs) == 0 {
		t.Error("no placement events")
	}

	// Latency histograms track every round even without tracing attached.
	if got := res.Metrics.IntervalDuration().Count(); got != uint64(res.Intervals) {
		t.Errorf("interval histogram count = %d, want %d", got, res.Intervals)
	}
	if res.Metrics.AllocateDuration().Count() == 0 || res.Metrics.PlaceDuration().Count() == 0 {
		t.Error("empty kernel latency histograms")
	}
	// The refit histogram counts real §3.1 refits, and a true-model run
	// makes none (TestRunRefitParallelInvisible counts an estimated run's).
	if got := res.Metrics.RefitDuration().Count(); got != 0 {
		t.Errorf("true-model run recorded %d refits, want 0", got)
	}
}

// TestRunUntracedUnchanged pins that attaching no sinks leaves results
// byte-identical to a traced run — tracing must observe, never steer.
func TestRunUntracedUnchanged(t *testing.T) {
	plain, err := Run(testbedConfig(OptimusPolicy(), smallMix(4, 7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testbedConfig(OptimusPolicy(), smallMix(4, 7))
	cfg.Trace = obs.NewTracer(256)
	cfg.Audit = obs.NewAuditLog(256)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary != traced.Summary {
		t.Errorf("tracing changed the run:\nplain  %+v\ntraced %+v", plain.Summary, traced.Summary)
	}
	if plain.Intervals != traced.Intervals {
		t.Errorf("intervals %d vs %d", plain.Intervals, traced.Intervals)
	}
}
