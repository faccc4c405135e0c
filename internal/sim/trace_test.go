package sim

import (
	"slices"
	"testing"

	"optimus/internal/core"
	"optimus/internal/obs"
)

// TestRunTraced checks the observability contract of a traced run: one
// "interval" span tree per scheduling round (with fit/allocate/place/deploy
// children and the instrumented kernels below them), a per-job decision
// history, and non-empty latency histograms.
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

	// Audit: every completed job has a decision history, stamped with valid
	// rounds.
	for id := range res.JCTs {
		ds := au.Decisions(id)
		if len(ds) == 0 {
			t.Errorf("job %d: no decisions", id)
		}
		for _, d := range ds {
			if d.Round < 1 || d.Round > res.Intervals {
				t.Errorf("job %d: decision stamped round %d of %d", id, d.Round, res.Intervals)
			}
		}
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

// TestRunAuditsEveryPolicy: under every policy, a run with an audit log
// records exactly one decision per active job per round, carrying the shape
// and servers the round deployed, never more than the job's grant.
func TestRunAuditsEveryPolicy(t *testing.T) {
	type deployed struct {
		alloc core.Allocation
		nodes []string
	}
	for _, p := range []Policy{OptimusPolicy(), DRFPolicy(), TetrisPolicy()} {
		t.Run(p.Name, func(t *testing.T) {
			var rounds []map[int]deployed // rounds[i] is round i+1
			deployHook = func(round int, active []*jobState) {
				if round != len(rounds)+1 {
					t.Fatalf("deploy of round %d after %d rounds", round, len(rounds))
				}
				m := make(map[int]deployed, len(active))
				for _, js := range active {
					m[js.Spec.ID] = deployed{js.Alloc, js.Nodes}
				}
				rounds = append(rounds, m)
			}
			defer func() { deployHook = nil }()
			cfg := testbedConfig(p, smallMix(6, 5))
			cfg.Audit = obs.NewAuditLog(obs.DefaultAuditBuffer)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rounds) != res.Intervals || res.Intervals == 0 {
				t.Fatalf("%d deploys over %d intervals", len(rounds), res.Intervals)
			}
			want := 0
			for _, m := range rounds {
				want += len(m)
			}
			ds := cfg.Audit.Decisions(-1)
			if len(ds) != want {
				t.Errorf("%d decisions, want one per active job per round (%d)", len(ds), want)
			}
			seen := map[[2]int]bool{}
			for _, d := range ds {
				if d.Round < 1 || d.Round > len(rounds) {
					t.Errorf("decision stamped round %d of %d", d.Round, len(rounds))
					continue
				}
				dep, ok := rounds[d.Round-1][d.Job]
				key := [2]int{d.Round, d.Job}
				if !ok || seen[key] {
					t.Errorf("round %d: job %d decided again or while inactive (active %v)", d.Round, d.Job, ok)
					continue
				}
				seen[key] = true
				if placed := (core.Allocation{PS: d.PS, Workers: d.Workers}); placed != dep.alloc ||
					!slices.Equal(d.Nodes, dep.nodes) || d.Servers != len(dep.nodes) {
					t.Errorf("round %d job %d: decided %v on %v, round deployed %v on %v",
						d.Round, d.Job, placed, d.Nodes, dep.alloc, dep.nodes)
				}
				if d.PS > d.GrantPS || d.Workers > d.GrantWorkers {
					t.Errorf("round %d job %d: placed %d/%d above the grant %d/%d",
						d.Round, d.Job, d.PS, d.Workers, d.GrantPS, d.GrantWorkers)
				}
			}
		})
	}
}
