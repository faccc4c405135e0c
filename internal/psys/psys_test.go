package psys

import (
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"optimus/internal/speedfit"
)

func regJob(t *testing.T, cfg JobConfig) *Job {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = LinearRegression{Features: 20}
	}
	if cfg.Data.Len() == 0 {
		data, _, err := SyntheticRegression(800, 20, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Data = data
	}
	if cfg.Workers == 0 {
		cfg.Workers = 3
	}
	if cfg.Servers == 0 {
		cfg.Servers = 2
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	j, err := StartJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Stop)
	return j
}

func TestJobConfigValidation(t *testing.T) {
	data, _, _ := SyntheticRegression(100, 5, 0, 1)
	bad := []JobConfig{
		{},
		{Model: LinearRegression{Features: 5}},
		{Model: LinearRegression{Features: 5}, Data: data},
		{Model: LinearRegression{Features: 5}, Data: data, Workers: 1},
		{Model: LinearRegression{Features: 5}, Data: data, Workers: 1, Servers: 1},
		{Model: LinearRegression{Features: 5}, Data: data, Workers: 1, Servers: 1, BatchSize: 8},
		{Model: LinearRegression{Features: 5}, Data: data, Workers: 1, Servers: 1,
			BatchSize: 8, LR: 0.1, InitParams: []float64{1}},
	}
	for i, cfg := range bad {
		if _, err := StartJob(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSyncTrainingConverges(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Seed: 2})
	before, err := j.Loss()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.RunSteps(150); err != nil {
		t.Fatal(err)
	}
	after, err := j.Loss()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before*0.2 {
		t.Errorf("loss %g → %g; expected ≥5x reduction", before, after)
	}
}

func TestAsyncTrainingConverges(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Async, Seed: 3})
	before, _ := j.Loss()
	if _, err := j.RunSteps(200); err != nil {
		t.Fatal(err)
	}
	after, _ := j.Loss()
	if after >= before*0.3 {
		t.Errorf("async loss %g → %g; expected big reduction", before, after)
	}
}

func TestLogisticTraining(t *testing.T) {
	data, _, err := SyntheticClassification(600, 10, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	j := regJob(t, JobConfig{
		Model: LogisticRegression{Features: 10}, Data: data,
		Mode: speedfit.Sync, LR: 0.5, Seed: 4,
	})
	before, _ := j.Loss()
	if _, err := j.RunSteps(120); err != nil {
		t.Fatal(err)
	}
	after, _ := j.Loss()
	if after >= before {
		t.Errorf("logistic loss %g → %g; expected decrease", before, after)
	}
}

func TestSyncLockstep(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Workers: 4, Seed: 5})
	stats, err := j.RunSteps(25)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker must complete exactly 25 rounds — lockstep.
	counts := make(map[int]int)
	for _, s := range stats {
		counts[s.Worker]++
	}
	for w, c := range counts {
		if c != 25 {
			t.Errorf("worker %d completed %d steps, want 25", w, c)
		}
	}
	for _, w := range j.workers {
		if w.Round() != 25 {
			t.Errorf("worker %d at round %d, want 25", w.ID, w.Round())
		}
	}
}

func TestSyncEquivalentToSequentialSGD(t *testing.T) {
	// With one worker and full-batch steps, sync PS training must match
	// plain gradient descent computed locally.
	data, _, err := SyntheticRegression(64, 8, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	model := LinearRegression{Features: 8}
	init := make([]float64, 8)
	for i := range init {
		init[i] = 0.05 * float64(i)
	}
	j := regJob(t, JobConfig{
		Model: model, Data: data, Mode: speedfit.Sync,
		Workers: 1, Servers: 3, BatchSize: 64, LR: 0.05,
		InitParams: init, Seed: 6, ChunkSize: 64,
	})
	const steps = 10
	if _, err := j.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	got, err := j.Params()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: local full-batch gradient descent.
	want := append([]float64(nil), init...)
	grad := make([]float64, 8)
	for s := 0; s < steps; s++ {
		model.Gradient(want, grad, data)
		for i := range want {
			want[i] -= 0.05 * grad[i]
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("param %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTCPTransport(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Transport: TransportTCP, Seed: 7})
	before, _ := j.Loss()
	if _, err := j.RunSteps(60); err != nil {
		t.Fatal(err)
	}
	after, _ := j.Loss()
	if after >= before*0.5 {
		t.Errorf("TCP loss %g → %g; expected reduction", before, after)
	}
}

func TestTCPAndLocalAgree(t *testing.T) {
	data, _, err := SyntheticRegression(256, 12, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr TransportKind) []float64 {
		j := regJob(t, JobConfig{
			Model: LinearRegression{Features: 12}, Data: data,
			Mode: speedfit.Sync, Workers: 2, Servers: 2,
			BatchSize: 16, LR: 0.05, Seed: 8, Transport: tr,
		})
		if _, err := j.RunSteps(20); err != nil {
			t.Fatal(err)
		}
		p, err := j.Params()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lp, tp := run(TransportLocal), run(TransportTCP)
	for i := range lp {
		if math.Abs(lp[i]-tp[i]) > 1e-9 {
			t.Fatalf("param %d differs: local %g, tcp %g", i, lp[i], tp[i])
		}
	}
}

func TestChunkStore(t *testing.T) {
	data, _, err := SyntheticRegression(103, 4, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewChunkStore(data, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumChunks() != 11 { // 10 full + 1 tail of 3
		t.Errorf("NumChunks = %d, want 11", cs.NumChunks())
	}
	if err := cs.Assign([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for w := 0; w < 3; w++ {
		total += cs.Shard(w).Len()
	}
	if total != 103 {
		t.Errorf("shards cover %d examples, want 103", total)
	}
	if imb := cs.Imbalance(); imb > 10 {
		t.Errorf("imbalance = %d examples, want ≤ one chunk", imb)
	}
	// Rebalance to more workers (§5.1).
	if err := cs.Assign([]int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if cs.Shard(4).Len() == 0 {
		t.Error("new worker received no data after reassignment")
	}
	if err := cs.Assign(nil); err == nil {
		t.Error("Assign(nil) accepted")
	}
	if err := cs.Assign([]int{1, 1}); err == nil {
		t.Error("duplicate worker IDs accepted")
	}
}

func TestChunkStoreValidation(t *testing.T) {
	if _, err := NewChunkStore(Batch{}, 10); err == nil {
		t.Error("empty dataset accepted")
	}
	data, _, _ := SyntheticRegression(10, 2, 0, 1)
	if _, err := NewChunkStore(data, 0); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewChunkStore(Batch{X: data.X, Y: data.Y[:5]}, 2); err == nil {
		t.Error("ragged batch accepted")
	}
}

// TestDetectStragglersRule judges the §5.2 rule on synthetic step stats, so
// the verdicts do not depend on how fast this host runs a step: a worker is
// a straggler when its median step time is more than twice that of the
// median worker.
func TestDetectStragglersRule(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// steps gives worker w one stat per compute time; wall is each step's
	// Duration (0 means the same as compute).
	steps := func(w int, wall time.Duration, compute ...time.Duration) []StepStat {
		var out []StepStat
		for i, c := range compute {
			d := wall
			if d == 0 {
				d = c
			}
			out = append(out, StepStat{Worker: w, Step: i, Duration: d, Compute: c})
		}
		return out
	}
	cat := func(parts ...[]StepStat) []StepStat {
		var out []StepStat
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		stats []StepStat
		want  []int
	}{
		{"one slow worker", cat(
			steps(0, 0, ms(2), ms(2), ms(2)), steps(1, 0, ms(2.1), ms(2), ms(2)),
			steps(2, 0, ms(14), ms(14), ms(14)), steps(3, 0, ms(2), ms(1.9), ms(2))), []int{2}},
		{"exactly twice the median is not slow", cat(
			steps(0, 0, ms(2), ms(2), ms(2)), steps(1, 0, ms(2), ms(2), ms(2)),
			steps(2, 0, ms(4), ms(4), ms(4))), nil},
		{"a fast worker is never a straggler", cat(
			steps(0, 0, ms(2), ms(2), ms(2)), steps(1, 0, ms(2), ms(2), ms(2)),
			steps(2, 0, ms(0.01), ms(0.01), ms(0.01)), steps(3, 0, ms(2), ms(2), ms(2))), nil},
		{"one hiccup does not move a median", cat(
			steps(0, 0, ms(2), ms(200), ms(2)), steps(1, 0, ms(2), ms(2), ms(2)),
			steps(2, 0, ms(2), ms(2), ms(2))), nil},
		{"sync barriers equalize wall time; compute time decides", cat(
			steps(0, ms(15), ms(0.1), ms(0.1), ms(0.1)), steps(1, ms(15), ms(15), ms(15), ms(15)),
			steps(2, ms(15), ms(0.1), ms(0.1), ms(0.1))), []int{1}},
		{"no compute time falls back to wall time", cat(
			steps(0, ms(2), 0, 0, 0), steps(1, ms(9), 0, 0, 0), steps(2, ms(2), 0, 0, 0)), []int{1}},
	} {
		if got := DetectStragglers(tc.stats); !slices.Equal(got, tc.want) {
			t.Errorf("%s: stragglers = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStragglerDetectionAndReplacement runs the §5.2 loop on a live job.
// Every worker carries a 3 ms baseline delay and worker 2 a 15 ms one, and
// injected delay counts as compute time. Worker 2 is found at 5× the median
// step time, and after its delay-free replacement a healthy worker would
// need 3 ms of extra compute on its median step to cross 2×: µs-scale
// compute jitter cannot flag one, which an all-µs job could (it failed about
// one run in thirty with "straggler persisted after replacement: [3]").
func TestStragglerDetectionAndReplacement(t *testing.T) {
	const base = 3 * time.Millisecond
	j := regJob(t, JobConfig{
		Mode: speedfit.Async, Workers: 4, Seed: 10,
		WorkerDelays: map[int]time.Duration{0: base, 1: base, 2: 5 * base, 3: base},
	})
	stats, err := j.RunSteps(12)
	if err != nil {
		t.Fatal(err)
	}
	stragglers := DetectStragglers(stats)
	if len(stragglers) != 1 || stragglers[0] != 2 {
		t.Fatalf("stragglers = %v, want [2]", stragglers)
	}
	if err := j.ReplaceWorker(2); err != nil {
		t.Fatal(err)
	}
	if d := j.workers[2].Delay(); d != 0 {
		t.Fatalf("replacement worker carries a %v delay, want none", d)
	}
	stats2, err := j.RunSteps(12)
	if err != nil {
		t.Fatal(err)
	}
	if again := DetectStragglers(stats2); len(again) != 0 {
		t.Errorf("straggler persisted after replacement: %v", again)
	}
	if err := j.ReplaceWorker(99); err == nil {
		t.Error("ReplaceWorker accepted unknown id")
	}
}

func TestDetectStragglersEmpty(t *testing.T) {
	if got := DetectStragglers(nil); got != nil {
		t.Errorf("DetectStragglers(nil) = %v", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.gob")
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Seed: 11})
	if _, err := j.RunSteps(30); err != nil {
		t.Fatal(err)
	}
	want, err := j.Params()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.ModelName != "linreg" || ck.Rounds != 30 || ck.Dim != 20 {
		t.Errorf("checkpoint header = %+v", ck)
	}
	for i := range want {
		if ck.Params[i] != want[i] {
			t.Fatalf("param %d differs in checkpoint", i)
		}
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.gob")); err == nil {
		t.Error("LoadCheckpoint of missing file succeeded")
	}
}

func TestElasticScaleContinuesTraining(t *testing.T) {
	dir := t.TempDir()
	data, _, err := SyntheticRegression(800, 16, 0.01, 12)
	if err != nil {
		t.Fatal(err)
	}
	j, err := StartJob(JobConfig{
		Model: LinearRegression{Features: 16}, Data: data,
		Mode: speedfit.Sync, Workers: 2, Servers: 1,
		BatchSize: 32, LR: 0.1, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.RunSteps(40); err != nil {
		t.Fatal(err)
	}
	midLoss, _ := j.Loss()
	midParams, _ := j.Params()

	// §5.4: checkpoint, stop, restart with 4 workers and 2 servers.
	j2, err := Scale(j, 4, 2, filepath.Join(dir, "scale.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Stop()
	if j2.Workers() != 4 || j2.Servers() != 2 {
		t.Fatalf("scaled job has %dw/%dp, want 4/2", j2.Workers(), j2.Servers())
	}
	if j2.Rounds() != 40 {
		t.Errorf("rounds after scale = %d, want 40", j2.Rounds())
	}
	// Parameters carried over exactly.
	resumed, _ := j2.Params()
	for i := range midParams {
		if resumed[i] != midParams[i] {
			t.Fatalf("param %d changed across scale", i)
		}
	}
	// Training continues to improve.
	if _, err := j2.RunSteps(40); err != nil {
		t.Fatal(err)
	}
	finalLoss, _ := j2.Loss()
	if finalLoss >= midLoss {
		t.Errorf("loss after scale %g not below pre-scale %g", finalLoss, midLoss)
	}
	// Old job is unusable.
	if _, err := j.RunSteps(1); err == nil {
		t.Error("stopped job accepted RunSteps")
	}
}

func TestScaleValidation(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Seed: 13})
	if _, err := Scale(j, 0, 1, filepath.Join(t.TempDir(), "x.gob")); err == nil {
		t.Error("Scale accepted zero workers")
	}
}

func TestBlockLayout(t *testing.T) {
	l, err := NewBlockLayout([]int{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.Dim() != 10 {
		t.Errorf("Dim = %d", l.Dim())
	}
	if l.Offsets[2] != 8 {
		t.Errorf("Offsets = %v", l.Offsets)
	}
	if _, err := NewBlockLayout(nil); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := NewBlockLayout([]int{1, 0}); err == nil {
		t.Error("zero block accepted")
	}
	even, err := EvenLayout(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(even.Sizes) != 4 || even.Sizes[0] != 3 || even.Sizes[3] != 2 {
		t.Errorf("EvenLayout = %v", even.Sizes)
	}
	// nBlocks > dim clamps.
	small, err := EvenLayout(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Sizes) != 2 {
		t.Errorf("clamped layout = %v", small.Sizes)
	}
}

func TestServerErrors(t *testing.T) {
	s, err := NewServer(speedfit.Sync, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Host(0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Host(0, []float64{1}); err == nil {
		t.Error("duplicate Host accepted")
	}
	if err := s.Host(1, nil); err == nil {
		t.Error("empty block accepted")
	}
	if err := s.Push(9, []float64{1}); err == nil {
		t.Error("push to unknown block accepted")
	}
	if err := s.Push(0, []float64{1}); err == nil {
		t.Error("wrong-size gradient accepted")
	}
	if _, _, err := s.Pull(9, 0); err == nil {
		t.Error("pull of unknown block accepted")
	}
	s.Close()
	if err := s.Push(0, []float64{1, 1}); err != ErrClosed {
		t.Errorf("push after close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Pull(0, 5); err != ErrClosed {
		t.Errorf("pull after close = %v, want ErrClosed", err)
	}
	if _, err := NewServer(speedfit.Sync, 0, 1); err == nil {
		t.Error("zero learning rate accepted")
	}
	if _, err := NewServer(speedfit.Sync, 0.1, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestPullUnblocksOnClose(t *testing.T) {
	s, err := NewServer(speedfit.Sync, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Host(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Pull(0, 99) // version never reaches 99
		done <- err
	}()
	// A Pull that has not blocked yet returns ErrClosed at once: the test
	// passes either way.
	// sleep: let Pull block first, so the wake-up path is what runs.
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("blocked pull returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull did not unblock on close")
	}
}

func TestSyntheticGenerators(t *testing.T) {
	if _, _, err := SyntheticRegression(0, 5, 0, 1); err == nil {
		t.Error("accepted n=0")
	}
	if _, _, err := SyntheticClassification(5, 0, 0, 1); err == nil {
		t.Error("accepted features=0")
	}
	b, theta, err := SyntheticRegression(50, 3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 50 || len(theta) != 3 {
		t.Errorf("shape %d/%d", b.Len(), len(theta))
	}
	// Noise-free: true θ gives zero loss.
	if loss := (LinearRegression{Features: 3}).Loss(theta, b); loss > 1e-20 {
		t.Errorf("loss at truth = %g", loss)
	}
}

func TestRunStepsValidation(t *testing.T) {
	j := regJob(t, JobConfig{Mode: speedfit.Sync, Seed: 14})
	if _, err := j.RunSteps(0); err == nil {
		t.Error("RunSteps(0) accepted")
	}
}

func TestPAALoadBalanceBetterThanMXNet(t *testing.T) {
	// §5.3 in the live system: with skewed blocks, the PAA-style assignment
	// spreads bytes more evenly than MXNet's random assignment.
	sizes := []int64{500, 400, 100, 50, 30, 20, 10, 5, 5, 5}
	spread := func(strategy AssignStrategy) int64 {
		owner := assignOwners(sizes, 3, strategy, 3)
		load := make([]int64, 3)
		for b, o := range owner {
			load[o] += sizes[b]
		}
		lo, hi := load[0], load[0]
		for _, v := range load {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if p, m := spread(AssignPAA), spread(AssignMXNet); p > m {
		t.Errorf("PAA spread %d worse than MXNet %d", p, m)
	}
}

func TestSyncStragglerDetectionViaComputeTime(t *testing.T) {
	// Under synchronous barriers all wall durations equalize; §5.2 detection
	// must still find the slow worker via its gradient-production time.
	j := regJob(t, JobConfig{
		Mode: speedfit.Sync, Workers: 4, Seed: 20,
		WorkerDelays: map[int]time.Duration{1: 15 * time.Millisecond},
	})
	stats, err := j.RunSteps(10)
	if err != nil {
		t.Fatal(err)
	}
	got := DetectStragglers(stats)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("stragglers = %v, want [1]", got)
	}
}
