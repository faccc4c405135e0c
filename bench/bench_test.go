package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"optimus/internal/core"
	"optimus/internal/serve"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5},
		{100, 0.9}, // exactly ten samples beyond the p90
		{999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {250000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

func TestQuietEstimates(t *testing.T) {
	// Three executions of four operations; a slow spell hits each once.
	got := fastest([][]float64{{5, 2, 3, 4}, {1, 6, 3, 4}, {1, 2, 7, 4, 9}})
	if want := []float64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
	// An execution cut short by the deadline shortens the result.
	if got := fastest([][]float64{{5, 2, 3}, {1}}); !reflect.DeepEqual(got, []float64{1}) {
		t.Errorf("fastest with a cut execution = %v, want [1]", got)
	}
	windows := make([]float64, 40)
	for i := range windows {
		windows[i] = float64(40 - i) // 40 … 1
	}
	if lo, hi := quietLow(windows), quietHigh(windows); lo != 6 || hi != 35 {
		t.Errorf("quietLow, quietHigh of 1..40 = %g, %g, want 6, 35", lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Nested: the grandchild shortens the child's self time, not the root's.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 2, Start: 15, End: 20},
		// Overlapping with span 2 (concurrent calls): [20,30] counts once.
		{ID: 4, Parent: 1, Start: 20, End: 50},
		// Runs past the parent's end: clipped to [90,100].
		{ID: 5, Parent: 1, Start: 90, End: 120},
		// Wholly inside an earlier sibling: adds nothing.
		{ID: 6, Parent: 1, Start: 25, End: 28},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (50 - 10) - 10, 2: 20 - 5, 3: 5, 4: 30, 5: 30, 6: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	rows := layerTable([]span{
		{ID: 1, Layer: "serve", Name: "Daemon.Step", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Layer: "serve", Name: "interval", Start: 1e6, End: 9e6},
		{ID: 3, Layer: "serve", Name: "Daemon.Step", Start: 20e6, End: 25e6},
	})
	if len(rows) != 2 || rows[0].Name != "interval" || rows[0].SelfMs != 8 ||
		rows[1].Count != 2 || rows[1].TotalMs != 15 || rows[1].SelfMs != 7 {
		t.Errorf("layerTable = %+v", rows)
	}
}

func TestRoundMetrics(t *testing.T) {
	var spans []span
	id := int64(0)
	add := func(parent int64, name string, start, end int64) int64 {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	for r := int64(0); r < 20; r++ {
		t0 := r * 100e6
		width := (r + 1) * 1e6 // rounds grow
		step := add(0, "Daemon.Step", t0, t0+10*width)
		iv := add(step, "interval", t0+width, t0+9*width)
		add(iv, "fit", t0+width, t0+2*width)
		add(iv, "place", t0+2*width, t0+8*width)
		add(iv, "deploy", t0+8*width, t0+9*width)
	}
	got := make(map[string]float64)
	for _, m := range roundMetrics(spans) {
		got[m.Name] = m.Value
	}
	// Round r costs 10(r+1) ms, 8(r+1) of it inside named stages.
	if math.Abs(got["round.named_frac"]-0.8) > 1e-9 {
		t.Errorf("named_frac = %g, want 0.8", got["round.named_frac"])
	}
	if got["round.place_ms"] != 6*10 || got["round.allocate_ms"] != 0 || got["round.other_ms"] != 2*10 {
		t.Errorf("stage medians = %v", got)
	}
	// Last tenth (rounds 19, 20) over second tenth (rounds 3, 4), medians by nearest rank.
	if got["round.growth"] != 19.0/3 {
		t.Errorf("growth = %g, want %g", got["round.growth"], 19.0/3)
	}
}

// TestSeedDeterminism: the same seed yields byte-identical job streams and
// op schedules, a different seed a different one.
func TestSeedDeterminism(t *testing.T) {
	jobs := func(seed int64) string {
		b, err := json.Marshal(replayTrace(seed, 400, replayHorizon))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ops := func(seed int64, client int, rate float64) string {
		s := newOpStream(seed, client, writeMix.mix, rate)
		var out []op
		for i := 0; i < 2000; i++ {
			out = append(out, s.next())
		}
		return fmt.Sprintf("%+v", out)
	}
	if jobs(7) != jobs(7) || ops(7, 0, 0) != ops(7, 0, 0) || ops(7, 1, 500) != ops(7, 1, 500) {
		t.Error("the same seed produced different inputs")
	}
	if jobs(7) == jobs(8) || ops(7, 0, 0) == ops(8, 0, 0) {
		t.Error("different seeds produced the same inputs")
	}
	if ops(7, 0, 0) == ops(7, 1, 0) {
		t.Error("two clients of one seed share a schedule")
	}
}

// TestJobStreamStratified: every block of the stream holds each (model,
// mode) pair exactly once and thresholds stay in range.
func TestJobStreamStratified(t *testing.T) {
	g := newJobGen(3)
	k := 2 * len(g.zoo)
	for block := 0; block < 5; block++ {
		seen := make(map[string]bool)
		for i := 0; i < k; i++ {
			s := g.next()
			seen[s.Model.Name+"/"+s.Mode.String()] = true
			if s.Threshold < 0.01 || s.Threshold > 0.05 {
				t.Fatalf("threshold %g out of [0.01, 0.05]", s.Threshold)
			}
		}
		if len(seen) != k {
			t.Fatalf("block %d holds %d distinct (model, mode) pairs, want %d", block, len(seen), k)
		}
	}
}

func TestMixProportions(t *testing.T) {
	s := newOpStream(1, 0, readMix.mix, 0)
	var n [numOpKinds]int
	for i := 0; i < 20000; i++ {
		n[s.next().Kind]++
	}
	for k, want := range readMix.mix {
		if got := float64(n[k]) / 200; math.Abs(got-float64(want)) > 1.5 {
			t.Errorf("%s: %.1f%% of ops, want %d%%", opKind(k), got, want)
		}
	}
}

// serveStatus is a JobStatus reduced to what recovery must preserve.
type serveStatus struct {
	id       int
	state    serve.JobState
	progress float64
	ps, w    int
}

func statuses(in []serveStatus) []serve.JobStatus {
	out := make([]serve.JobStatus, len(in))
	for i, s := range in {
		out[i] = serve.JobStatus{ID: s.id, State: s.state, ProgressEpochs: s.progress,
			Alloc: core.Allocation{PS: s.ps, Workers: s.w}}
	}
	return out
}

func TestCompareLists(t *testing.T) {
	live := []serveStatus{{1, "running", 3.5, 2, 4}, {2, "done", 9, 0, 0}, {3, "waiting", 0, 0, 0}}
	good := []serveStatus{{1, "waiting", 3.5, 0, 0}, {2, "done", 9, 0, 0}, {3, "waiting", 0, 0, 0}}
	if err := compareLists(statuses(live), statuses(good)); err != nil {
		t.Errorf("a faithful replay was rejected: %v", err)
	}
	for name, bad := range map[string][]serveStatus{
		"lost job":       good[:2],
		"lost progress":  {{1, "waiting", 3.0, 0, 0}, good[1], good[2]},
		"wrong state":    {good[0], {2, "waiting", 9, 0, 0}, good[2]},
		"kept placement": {{1, "waiting", 3.5, 2, 4}, good[1], good[2]},
	} {
		if compareLists(statuses(live), statuses(bad)) == nil {
			t.Errorf("%s: a diverged replay was accepted", name)
		}
	}
}

// TestSmoke runs every workload at 1/50 size and validates what it emits
// against the names in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	rn := &runner{root: root, spec: spec, size: 0.02}
	validate := func(t *testing.T, res *result, listed []metricSpec, nonZero bool) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			} `json:"metrics"`
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if err := json.Unmarshal([]byte(res.lastLine()), &keys); err != nil || len(keys) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("last line lacks a required key: %s", res.lastLine())
		}
		var got, want []string
		for name, m := range line.Metrics {
			got = append(got, name)
			if m.Value == nil || m.Unit == nil {
				t.Errorf("metric %s lacks value or unit", name)
			} else if nonZero && *m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
		for _, ms := range listed {
			want = append(want, ms.Name)
			if m, ok := line.Metrics[ms.Name]; ok && m.Unit != nil && *m.Unit != ms.Unit {
				t.Errorf("metric %s in %s, BENCHMARK.json says %s", ms.Name, *m.Unit, ms.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("emitted metrics %v\nBENCHMARK.json lists %v", got, want)
		}
	}
	// Rounds and replays run a fixed count, cheap at this size, and need their
	// whole count for a p90; traffic runs by the clock and gets half a second.
	seconds := func(name string) float64 {
		if name == "serve-read" || name == "serve-write" {
			return 0.5
		}
		return float64(spec.RunSeconds)
	}
	quality := make(map[string]float64)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := rn.untraced(w.Name, 1, seconds(w.Name))
			if err != nil {
				t.Fatal(err)
			}
			validate(t, res, spec.EndToEnd, true)
			quality[w.Name] = res.Metrics["sched_quality"].Value
		})
	}
	// Harness-driven workloads decide nothing by the clock: the same seed
	// must reproduce the schedule, and with it sched_quality, to the digit.
	for _, name := range []string{"replay", "rounds-wide"} {
		t.Run(name+"/repeats", func(t *testing.T) {
			res, err := rn.untraced(name, 1, seconds(name))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Metrics["sched_quality"].Value; got != quality[name] {
				t.Errorf("sched_quality %v on the second run of seed 1, %v on the first", got, quality[name])
			}
		})
	}
	// One traced run covers the span folding, the layer table and the probes;
	// they are the same code on every workload.
	t.Run("rounds-dense/traced", func(t *testing.T) {
		res, err := rn.traced("rounds-dense", 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		validate(t, res, spec.PerLayer, false)
		if f := res.Metrics["round.named_frac"].Value; f < 0.5 || f > 1 {
			t.Errorf("round.named_frac = %g: program spans were not folded under the harness's Step spans", f)
		}
	})
}
