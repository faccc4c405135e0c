package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"optimus/internal/speedfit"
)

func TestZooShape(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 9 {
		t.Fatalf("zoo has %d models, want 9 (Table 1)", len(zoo))
	}
	names := map[string]bool{}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if names[m.Name] {
			t.Errorf("duplicate model %s", m.Name)
		}
		names[m.Name] = true
	}
	for _, want := range []string{"resnet-50", "seq2seq", "ds2", "resnext-110"} {
		if !names[want] {
			t.Errorf("missing model %s", want)
		}
	}
}

func TestZooByName(t *testing.T) {
	if ZooByName("resnet-50") == nil {
		t.Error("resnet-50 not found")
	}
	if ZooByName("nope") != nil {
		t.Error("expected nil for unknown model")
	}
}

// TestZooByNameCopies: ZooByName serves every zoo entry by value from a table
// built once, so a caller mutating its result cannot change what the next
// caller sees, and a lookup costs the one copy it returns.
func TestZooByNameCopies(t *testing.T) {
	for _, want := range Zoo() {
		got := ZooByName(want.Name)
		if got == nil || *got != *want {
			t.Fatalf("ZooByName(%q) = %+v, want %+v", want.Name, got, want)
		}
		got.Name, got.LossB0, got.WorkerRes[0] = "mutated", -1, -1
		if again := ZooByName(want.Name); again == nil || *again != *want {
			t.Fatalf("mutating a ZooByName(%q) result leaked into the next call: %+v", want.Name, again)
		}
	}
	if m := ZooByName("nope"); m != nil {
		t.Errorf("ZooByName of an unknown name = %+v, want nil", m)
	}
	var sink *Model
	if allocs := testing.AllocsPerRun(100, func() { sink = ZooByName("ds2") }); allocs != 1 {
		t.Errorf("ZooByName allocated %.1f times per call, want 1 (the copy)", allocs)
	}
	_ = sink
}

func TestValidateCatchesBadModels(t *testing.T) {
	m := ZooByName("kaggle")
	m.ModelBytes = 0
	if err := m.Validate(); err == nil {
		t.Error("expected error for zero model size")
	}
	m2 := ZooByName("kaggle")
	m2.LossB0 = 0
	if err := m2.Validate(); err == nil {
		t.Error("expected error for flat loss curve")
	}
}

func TestStepsPerEpoch(t *testing.T) {
	m := ZooByName("resnext-110")                                // 60000 examples, M=512, m=128
	if got := m.StepsPerEpoch(speedfit.Sync, 4, 1); got != 118 { // ceil(60000/512)
		t.Errorf("sync steps/epoch = %d, want 118", got)
	}
	if got := m.StepsPerEpoch(speedfit.Async, 4, 1); got != 118 { // ceil(60000/(128·4))
		t.Errorf("async steps/epoch (w=4) = %d, want 118", got)
	}
	// Downscale shrinks epochs proportionally.
	if got := m.StepsPerEpoch(speedfit.Sync, 4, 0.1); got != 12 {
		t.Errorf("downscaled steps/epoch = %d, want 12", got)
	}
	// Invalid downscale falls back to 1.
	if got := m.StepsPerEpoch(speedfit.Sync, 4, 7); got != 118 {
		t.Errorf("invalid downscale steps/epoch = %d, want 118", got)
	}
}

// Fig 4(a): with 20 total containers, sync ResNet-50 speed peaks at an
// interior worker count (the paper finds 8 workers / 12 PS).
func TestFig4aInteriorOptimum(t *testing.T) {
	m := ZooByName("resnet-50")
	best, bestW := 0.0, 0
	for w := 1; w <= 19; w++ {
		p := 20 - w
		if s := m.TrueSpeed(speedfit.Sync, p, w); s > best {
			best, bestW = s, w
		}
	}
	if bestW <= 2 || bestW >= 18 {
		t.Errorf("optimum at w=%d, want interior (paper: 8)", bestW)
	}
	t.Logf("Fig4(a) shape: optimum at %d workers / %d ps, speed %.4f steps/s",
		bestW, 20-bestW, best)
}

// Fig 4(b): at a 1:1 ps:worker ratio, speed gains flatten (and may reverse)
// as resources scale — no linear speedup.
func TestFig4bDiminishingReturns(t *testing.T) {
	m := ZooByName("resnet-50")
	s5 := m.TrueSpeed(speedfit.Sync, 5, 5)
	s10 := m.TrueSpeed(speedfit.Sync, 10, 10)
	s20 := m.TrueSpeed(speedfit.Sync, 20, 20)
	if s10 <= s5 {
		t.Errorf("speed should still grow 5→10 (s5=%g s10=%g)", s5, s10)
	}
	gain1 := s10 / s5
	gain2 := s20 / s10
	if gain2 >= gain1 {
		t.Errorf("expected diminishing returns: 5→10 gain %.2f, 10→20 gain %.2f", gain1, gain2)
	}
}

// Fig 2: training times must span orders of magnitude across the zoo.
func TestFig2TrainingTimeSpread(t *testing.T) {
	var times []float64
	for _, m := range Zoo() {
		epochs := m.EpochsToConverge(0.01, 3)
		steps := epochs * float64(m.StepsPerEpoch(speedfit.Sync, 1, 1))
		times = append(times, steps*m.TrueStepTime(speedfit.Sync, 1, 1))
	}
	sort.Float64s(times)
	if ratio := times[len(times)-1] / times[0]; ratio < 50 {
		t.Errorf("training-time spread %.1fx, want ≥ 50x (paper: minutes to weeks)", ratio)
	}
}

func TestTrueSpeedEdgeCases(t *testing.T) {
	m := ZooByName("cnn-rand")
	if m.TrueSpeed(speedfit.Sync, 0, 5) != 0 {
		t.Error("speed with p=0 should be 0")
	}
	if m.TrueSpeed(speedfit.Async, 5, 0) != 0 {
		t.Error("speed with w=0 should be 0")
	}
	if !math.IsInf(m.TrueStepTime(speedfit.Sync, 0, 1), 1) {
		t.Error("step time with p=0 should be +Inf")
	}
}

func TestTrueLossMonotoneDecreasing(t *testing.T) {
	for _, m := range Zoo() {
		prev := math.Inf(1)
		for e := 1.0; e <= 512; e *= 2 {
			l := m.TrueLoss(e)
			if l >= prev {
				t.Errorf("%s: loss not decreasing at epoch %g", m.Name, e)
			}
			prev = l
		}
	}
}

func TestEpochsToConvergeThresholdOrdering(t *testing.T) {
	m := ZooByName("seq2seq")
	loose := m.EpochsToConverge(0.05, 3)
	tight := m.EpochsToConverge(0.01, 3)
	if tight <= loose {
		t.Errorf("tight threshold epochs (%g) should exceed loose (%g)", tight, loose)
	}
	// Defaults kick in for invalid arguments.
	if got := m.EpochsToConverge(0, 0); got <= 0 || math.IsInf(got, 1) {
		t.Errorf("EpochsToConverge with defaults = %g", got)
	}
}

func TestParameterBlocks(t *testing.T) {
	m := ZooByName("resnet-50")
	blocks := m.ParameterBlocks()
	if len(blocks) != 157 {
		t.Fatalf("resnet-50 has %d blocks, want 157 (Table 3)", len(blocks))
	}
	var total int64
	maxB := int64(0)
	for _, b := range blocks {
		if b < 1 {
			t.Fatalf("block size %d < 1", b)
		}
		total += b
		if b > maxB {
			maxB = b
		}
	}
	if total != 25_000_000 {
		t.Errorf("total parameters = %d, want 25000000", total)
	}
	// The distribution must be skewed: the largest block holds a large
	// multiple of the mean (that's what breaks MXNet's threshold heuristic).
	mean := float64(total) / float64(len(blocks))
	if float64(maxB) < 5*mean {
		t.Errorf("largest block %d not ≫ mean %.0f; distribution not skewed", maxB, mean)
	}
	// Deterministic across calls.
	again := m.ParameterBlocks()
	for i := range blocks {
		if blocks[i] != again[i] {
			t.Fatal("ParameterBlocks not deterministic")
		}
	}
}

func TestEvenSpread(t *testing.T) {
	s := EvenSpread(4, 6, 3)
	p, w := s.Total()
	if p != 4 || w != 6 {
		t.Fatalf("Total = %d,%d want 4,6", p, w)
	}
	for k := range s.PSOnNode {
		if s.PSOnNode[k] < 1 || s.PSOnNode[k] > 2 {
			t.Errorf("ps on node %d = %d, want 1 or 2", k, s.PSOnNode[k])
		}
		if s.WorkersOnNode[k] != 2 {
			t.Errorf("workers on node %d = %d, want 2", k, s.WorkersOnNode[k])
		}
	}
	// k<1 clamps to a single node.
	s1 := EvenSpread(2, 2, 0)
	if len(s1.PSOnNode) != 1 {
		t.Errorf("EvenSpread with k=0 has %d nodes", len(s1.PSOnNode))
	}
}

// Fig 10: the paper's worked example. 2 PS + 4 workers on 3 servers; the
// even 1ps+2w per-server split (c) beats the unbalanced splits (a) and (b).
func TestFig10PlacementExample(t *testing.T) {
	m := ZooByName("resnet-50")
	// (a): server1={ps1,w1,w2}, server2={ps2,w3,w4}: cross-server data for
	// each ps is (S/2)·2 at B. We model via spreads.
	a := TaskSpread{PSOnNode: []int{1, 1}, WorkersOnNode: []int{2, 2}}
	// (b): server1={ps1,ps2,w3}, server2={w1,w2,w4} — ps node has 3 remote workers.
	b := TaskSpread{PSOnNode: []int{2, 0}, WorkersOnNode: []int{1, 3}}
	// (c) in the paper uses 3 servers: not expressible with 2 even counts;
	// with our continuous model, concentrating on fewer servers (a) wins.
	ta := m.CrossServerTransferTime(a)
	tb := m.CrossServerTransferTime(b)
	if ta >= tb {
		t.Errorf("even colocation (a): %g should beat skewed (b): %g", ta, tb)
	}
	// Theorem 1: fewer servers → less cross traffic. Compare even spreads of
	// the same job over 2 vs 3 servers.
	t2 := m.CrossServerTransferTime(EvenSpread(2, 4, 2))
	t3 := m.CrossServerTransferTime(EvenSpread(2, 4, 3))
	if t2 > t3 {
		t.Errorf("2-server spread (%g) should not be slower than 3-server (%g)", t2, t3)
	}
}

func TestPlacedStepTimeBounds(t *testing.T) {
	m := ZooByName("inception-bn")
	p, w := 4, 8
	ideal := m.TrueStepTime(speedfit.Sync, p, w)
	colocated := m.PlacedStepTime(speedfit.Sync, EvenSpread(p, w, 1))
	spread := m.PlacedStepTime(speedfit.Sync, EvenSpread(p, w, 12))
	if colocated > ideal {
		t.Errorf("fully colocated (%g) should beat the all-remote ideal model (%g)", colocated, ideal)
	}
	if spread < colocated {
		t.Errorf("wide spread (%g) should not beat colocated (%g)", spread, colocated)
	}
	if s := m.PlacedSpeed(speedfit.Sync, EvenSpread(0, 0, 1)); s != 0 {
		t.Errorf("PlacedSpeed with no tasks = %g, want 0", s)
	}
}

// Property: Theorem 1 — among spreads of (p,w) over k servers, the even
// spread minimizes cross-server transfer time versus random spreads.
func TestTheorem1Property(t *testing.T) {
	m := ZooByName("resnet-50")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3)
		p := k + r.Intn(6)
		w := k + r.Intn(8)
		even := m.CrossServerTransferTime(EvenSpread(p, w, k))
		// Random alternative spread that uses all of the same k servers
		// (Theorem 1 compares placements on a fixed server set; using fewer
		// servers is covered by its separate smallest-k claim).
		alt := TaskSpread{PSOnNode: make([]int, k), WorkersOnNode: make([]int, k)}
		for i := 0; i < k; i++ {
			alt.WorkersOnNode[i]++ // ensure every server is used
		}
		for i := k; i < w; i++ {
			alt.WorkersOnNode[r.Intn(k)]++
		}
		for i := 0; i < p; i++ {
			alt.PSOnNode[r.Intn(k)]++
		}
		return even <= m.CrossServerTransferTime(alt)+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGenerate(t *testing.T) {
	jobs := Generate(GenConfig{N: 50, Horizon: 12000, Seed: 1, Downscale: 0.1})
	if len(jobs) != 50 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	prev := -1.0
	sawAsync, sawSync := false, false
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Error("arrivals not sorted")
		}
		prev = j.Arrival
		if j.Arrival < 0 || j.Arrival > 12000 {
			t.Errorf("arrival %g outside window", j.Arrival)
		}
		if j.Threshold < 0.01-1e-12 || j.Threshold > 0.05+1e-12 {
			t.Errorf("threshold %g outside [0.01,0.05]", j.Threshold)
		}
		if j.Mode == speedfit.Async {
			sawAsync = true
		} else {
			sawSync = true
		}
	}
	if !sawAsync || !sawSync {
		t.Error("expected a mix of training modes")
	}
	// Deterministic for a fixed seed.
	again := Generate(GenConfig{N: 50, Horizon: 12000, Seed: 1, Downscale: 0.1})
	for i := range jobs {
		if jobs[i].Model.Name != again[i].Model.Name || jobs[i].Arrival != again[i].Arrival {
			t.Fatal("Generate not deterministic")
		}
	}
}

func TestGenerateForceMode(t *testing.T) {
	m := speedfit.Sync
	jobs := Generate(GenConfig{N: 20, Seed: 2, ForceMode: &m})
	for _, j := range jobs {
		if j.Mode != speedfit.Sync {
			t.Fatal("ForceMode not applied")
		}
	}
}

func TestGenerateEmpty(t *testing.T) {
	if jobs := Generate(GenConfig{N: 0}); jobs != nil {
		t.Errorf("expected nil for N=0, got %d jobs", len(jobs))
	}
}

func TestArrivalProcesses(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for name, fn := range map[string]ArrivalProcess{
		"uniform": UniformArrivals,
		"poisson": PoissonArrivals,
		"google":  GoogleTraceArrivals,
	} {
		ts := fn(r, 100, 10000)
		if len(ts) != 100 {
			t.Errorf("%s: %d arrivals, want 100", name, len(ts))
		}
		for i, v := range ts {
			if v < 0 || v > 10000 {
				t.Errorf("%s: arrival %g outside window", name, v)
			}
			if i > 0 && v < ts[i-1] {
				t.Errorf("%s: arrivals not sorted", name)
			}
		}
		if got := fn(r, 0, 100); len(got) != 0 {
			t.Errorf("%s: expected empty for n=0", name)
		}
	}
}

// GoogleTraceArrivals must be burstier than uniform: the maximum number of
// arrivals in any 5% window should be substantially higher.
func TestGoogleTraceIsBursty(t *testing.T) {
	burstiness := func(fn ArrivalProcess, seed int64) float64 {
		r := rand.New(rand.NewSource(seed))
		ts := fn(r, 400, 10000)
		best := 0
		for _, c := range ts {
			cnt := 0
			for _, v := range ts {
				if v >= c && v < c+500 {
					cnt++
				}
			}
			if cnt > best {
				best = cnt
			}
		}
		return float64(best)
	}
	var bu, bg float64
	for s := int64(0); s < 5; s++ {
		bu += burstiness(UniformArrivals, s)
		bg += burstiness(GoogleTraceArrivals, s)
	}
	if bg < bu*1.5 {
		t.Errorf("google-trace burstiness %.0f not ≫ uniform %.0f", bg, bu)
	}
}

func TestJobSpecString(t *testing.T) {
	j := JobSpec{ID: 3, Model: ZooByName("dssm"), Mode: speedfit.Async,
		Threshold: 0.02, Arrival: 100}
	if got := j.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestJobSpecTotals(t *testing.T) {
	j := JobSpec{Model: ZooByName("resnext-110"), Mode: speedfit.Sync,
		Threshold: 0.02, Downscale: 0.2}
	epochs := j.TotalEpochs()
	if epochs <= 0 || math.IsInf(epochs, 1) {
		t.Fatalf("TotalEpochs = %g", epochs)
	}
	steps := j.TotalSteps(4)
	if steps <= 0 {
		t.Fatalf("TotalSteps = %g", steps)
	}
	if steps < epochs { // at least one step per epoch
		t.Errorf("steps %g < epochs %g", steps, epochs)
	}
}

func TestSmoothPlacedSpeed(t *testing.T) {
	m := ZooByName("resnet-50")
	// Invalid configurations yield zero.
	if got := m.SmoothPlacedSpeed(speedfit.Sync, 0, 5, 3); got != 0 {
		t.Errorf("p=0 speed = %g", got)
	}
	if got := m.SmoothPlacedSpeed(speedfit.Async, 5, 0, 3); got != 0 {
		t.Errorf("w=0 speed = %g", got)
	}
	// tasksPerNode below 1 clamps.
	if got := m.SmoothPlacedSpeed(speedfit.Sync, 2, 2, 0); got <= 0 {
		t.Errorf("clamped tasksPerNode speed = %g", got)
	}
	// The smooth surface must be monotone along single-task additions for
	// async at small scale (no cliffs) — the property the greedy allocator
	// depends on.
	prev := m.SmoothPlacedSpeed(speedfit.Async, 4, 1, 3)
	for w := 2; w <= 12; w++ {
		cur := m.SmoothPlacedSpeed(speedfit.Async, 4, w, 3)
		if cur < prev*0.999 {
			t.Fatalf("async smooth speed dropped at w=%d: %g → %g", w, prev, cur)
		}
		prev = cur
	}
	// Colocated (few tasks, one node) beats heavily spread for sync.
	colocated := m.SmoothPlacedSpeed(speedfit.Sync, 1, 2, 3)
	spreadOut := m.SmoothPlacedSpeed(speedfit.Sync, 1, 2, 1) // 1 task/node → 3 nodes
	if spreadOut > colocated {
		t.Errorf("spread (%g) should not beat colocated (%g)", spreadOut, colocated)
	}
	// Worker-side transfer dominates in PS-heavy shapes: adding servers far
	// beyond workers must eventually slow the smooth surface down.
	few := m.SmoothPlacedSpeed(speedfit.Sync, 4, 4, 3)
	many := m.SmoothPlacedSpeed(speedfit.Sync, 40, 4, 3)
	if many >= few {
		t.Errorf("40 PS (%g) should be slower than 4 PS (%g) at 4 workers", many, few)
	}
}

func TestPlacedSpeedAsync(t *testing.T) {
	m := ZooByName("rnn-lstm")
	spread := EvenSpread(2, 4, 2)
	sp := m.PlacedSpeed(speedfit.Async, spread)
	if sp <= 0 {
		t.Fatalf("async placed speed = %g", sp)
	}
	// Async speed counts aggregate worker steps: w/T vs sync 1/T.
	sy := m.PlacedSpeed(speedfit.Sync, spread)
	if sp <= sy {
		t.Errorf("async aggregate speed %g should exceed sync %g here", sp, sy)
	}
}

func TestValidateAllBranches(t *testing.T) {
	mk := func(mutate func(*Model)) error {
		m := ZooByName("kaggle")
		mutate(m)
		return m.Validate()
	}
	cases := map[string]func(*Model){
		"no name":        func(m *Model) { m.Name = "" },
		"zero batch":     func(m *Model) { m.BatchPerWkr = 0 },
		"zero global":    func(m *Model) { m.GlobalBatch = 0 },
		"zero forward":   func(m *Model) { m.FwdPerEx = 0 },
		"zero backward":  func(m *Model) { m.Backward = 0 },
		"zero bandwidth": func(m *Model) { m.PSBandwidth = 0 },
		"zero update":    func(m *Model) { m.UpdateRate = 0 },
		"neg beta2":      func(m *Model) { m.LossB2 = -1 },
		"zero dataset":   func(m *Model) { m.DatasetSize = 0 },
		"zero blocks":    func(m *Model) { m.NumBlocks = 0 },
	}
	for name, mutate := range cases {
		if err := mk(mutate); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
}
