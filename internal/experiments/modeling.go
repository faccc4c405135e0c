package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"optimus/internal/ascii"
	"optimus/internal/lossfit"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

func init() {
	register("table1", table1Workloads)
	register("fig1", fig1TrainingCurves)
	register("fig2", fig2TrainingTimes)
	register("fig4", fig4SpeedVsConfig)
	register("fig5", fig5LossCurves)
	register("fig6", fig6PredictionErrors)
	register("fig7", fig7OnlineFitting)
	register("fig8", fig8SampleEfficiency)
	register("fig9", fig9SpeedFunctions)
	register("fig10", fig10PlacementExample)
	register("table2", table2Coefficients)
}

// fig1TrainingCurves regenerates Fig. 1: training/validation loss and
// accuracy of ResNext-110 on CIFAR10 over epochs. Accuracy is derived from
// the loss trajectory (production models: loss convergence implies accuracy
// convergence, §2.1).
func fig1TrainingCurves(opt Options) (Table, error) {
	m := workload.ZooByName("resnext-110")
	total := m.EpochsToConverge(0.002, 3)
	const points = 20
	t := Table{
		ID:      "fig1",
		Title:   "Training curves of ResNext-110 on CIFAR10",
		Columns: []string{"epoch", "train-loss", "val-loss", "train-acc", "val-acc"},
		Notes:   "loss normalized to the first epoch; accuracy derived from loss progress",
	}
	l0, lInf := m.TrueLoss(1), m.LossB2
	var xs, losses, accs []float64
	for i := 0; i <= points; i++ {
		e := 1 + float64(i)/float64(points)*(total-1)
		l := m.TrueLoss(e)
		progress := (l0 - l) / (l0 - lInf)
		trainAcc := 0.10 + 0.85*progress
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", e),
			f(l), f(l * 1.12), // validation tracks training with a gap
			f2(trainAcc), f2(trainAcc - 0.03),
		})
		xs = append(xs, e)
		losses = append(losses, l)
		accs = append(accs, trainAcc)
	}
	t.Series = []ascii.Series{
		{Name: "train-loss", X: xs, Y: losses},
		{Name: "train-acc", X: xs, Y: accs},
	}
	return t, nil
}

// fig2TrainingTimes regenerates Fig. 2: time-to-convergence of every Table-1
// model on a single worker + single PS (the paper's one-GPU measurement).
func fig2TrainingTimes(Options) (Table, error) {
	t := Table{
		ID:      "fig2",
		Title:   "Training time to convergence per model (1 worker, 1 ps)",
		Columns: []string{"model", "epochs", "steps", "time", "time-seconds"},
		Notes:   "spans minutes to weeks, matching the paper's spread",
	}
	for _, m := range workload.Zoo() {
		epochs := m.EpochsToConverge(0.01, 3)
		steps := epochs * float64(m.StepsPerEpoch(speedfit.Sync, 1, 1))
		secs := steps * m.TrueStepTime(speedfit.Sync, 1, 1)
		t.Rows = append(t.Rows, []string{
			m.Name, fmt.Sprintf("%.0f", epochs), fmt.Sprintf("%.0f", steps),
			humanDuration(secs), fmt.Sprintf("%.0f", secs),
		})
	}
	return t, nil
}

func humanDuration(secs float64) string {
	switch {
	case secs < 120:
		return fmt.Sprintf("%.0fs", secs)
	case secs < 7200:
		return fmt.Sprintf("%.1fm", secs/60)
	case secs < 2*86400:
		return fmt.Sprintf("%.1fh", secs/3600)
	default:
		return fmt.Sprintf("%.1fd", secs/86400)
	}
}

// fig4SpeedVsConfig regenerates Fig. 4: ResNet-50 sync training speed (a)
// with 20 total containers split between PS and workers and (b) at a 1:1
// ratio with increasing scale.
func fig4SpeedVsConfig(Options) (Table, error) {
	m := workload.ZooByName("resnet-50")
	t := Table{
		ID:      "fig4",
		Title:   "ResNet-50 sync training speed vs resource configuration",
		Columns: []string{"panel", "workers", "ps", "steps/s"},
		Notes:   "panel a: interior optimum; panel b: diminishing/negative returns",
	}
	var xa, ya, xb, yb []float64
	for w := 1; w <= 19; w++ {
		s := m.TrueSpeed(speedfit.Sync, 20-w, w)
		t.Rows = append(t.Rows, []string{
			"a(total=20)", fmt.Sprint(w), fmt.Sprint(20 - w), f(s),
		})
		xa = append(xa, float64(w))
		ya = append(ya, s)
	}
	for w := 2; w <= 20; w += 2 {
		s := m.TrueSpeed(speedfit.Sync, w, w)
		t.Rows = append(t.Rows, []string{
			"b(1:1)", fmt.Sprint(w), fmt.Sprint(w), f(s),
		})
		xb = append(xb, float64(w))
		yb = append(yb, s)
	}
	t.Series = []ascii.Series{
		{Name: "total=20 (vs workers)", X: xa, Y: ya},
		{Name: "1:1 scale", X: xb, Y: yb},
	}
	return t, nil
}

// fig5LossCurves regenerates Fig. 5: normalized training-loss curves of all
// nine jobs against training progress (%).
func fig5LossCurves(Options) (Table, error) {
	t := Table{
		ID:      "fig5",
		Title:   "Normalized training-loss curves for all Table-1 jobs",
		Columns: []string{"model", "progress%", "normalized-loss"},
	}
	for _, m := range workload.Zoo() {
		total := m.EpochsToConverge(0.005, 3)
		l0 := m.TrueLoss(1)
		var xs, ys []float64
		for _, pct := range []float64{0, 10, 25, 50, 75, 100} {
			e := 1 + pct/100*(total-1)
			t.Rows = append(t.Rows, []string{
				m.Name, fmt.Sprintf("%.0f", pct), f(m.TrueLoss(e) / l0),
			})
			xs = append(xs, pct)
			ys = append(ys, m.TrueLoss(e)/l0)
		}
		switch m.Name {
		case "resnext-110", "seq2seq", "ds2":
			t.Series = append(t.Series, ascii.Series{Name: m.Name, X: xs, Y: ys})
		}
	}
	return t, nil
}

// fig6PredictionErrors regenerates Fig. 6: the convergence-prediction error
// of online fitting as training progresses, for every job.
func fig6PredictionErrors(opt Options) (Table, error) {
	t := Table{
		ID:      "fig6",
		Title:   "Convergence-prediction error vs training progress",
		Columns: []string{"model", "progress%", "error%"},
		Notes:   "error = (estimated total epochs − actual) / actual × 100",
	}
	rng := rand.New(rand.NewSource(opt.Seed + 6))
	marks := []float64{20, 40, 60, 80, 100}
	for _, m := range workload.Zoo() {
		total := m.EpochsToConverge(0.005, 3)
		fitter := lossfit.NewFitter()
		next := 0
		for e := 1.0; e <= total && next < len(marks); e++ {
			loss := m.TrueLoss(e) * (1 + 0.01*rng.NormFloat64())
			if loss <= 0 {
				loss = m.TrueLoss(e)
			}
			if err := fitter.Add(e, loss); err != nil {
				return Table{}, err
			}
			if e/total*100 >= marks[next] {
				errPct := math.NaN()
				if model, err := fitter.Fit(); err == nil {
					if est, err := model.StepsToConverge(0.005, 1, 3); err == nil {
						errPct = (est - total) / total * 100
					}
				}
				t.Rows = append(t.Rows, []string{
					m.Name, fmt.Sprintf("%.0f", marks[next]), f2(errPct),
				})
				next++
			}
		}
	}
	return t, nil
}

// fig7OnlineFitting regenerates Fig. 7: the fitted loss-curve coefficients
// for Seq2Seq as data accumulates. Ground truth: β0=0.21, β1=1.07, β2=0.07.
func fig7OnlineFitting(opt Options) (Table, error) {
	m := workload.ZooByName("seq2seq")
	t := Table{
		ID:      "fig7",
		Title:   "Online loss-model fitting for Seq2Seq",
		Columns: []string{"progress%", "beta0", "beta1", "beta2", "rms-residual"},
		Notes:   "paper's fit: β0=0.21 β1=1.07 β2=0.07 (our ground truth)",
	}
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	total := m.EpochsToConverge(0.005, 3)
	var pts []lossfit.Point
	marks := []float64{25, 50, 75, 100}
	next := 0
	for e := 1.0; e <= total && next < len(marks); e++ {
		loss := m.TrueLoss(e) * (1 + 0.01*rng.NormFloat64())
		pts = append(pts, lossfit.Point{K: e, Loss: loss})
		if e/total*100 >= marks[next] {
			model, err := lossfit.FitPoints(pts, 5)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", marks[next]),
				f(model.B0), f(model.B1), f(model.B2 * model.MaxLoss), f(model.Residual),
			})
			next++
		}
	}
	return t, nil
}

// fig8SampleEfficiency regenerates Fig. 8: speed-model estimation error vs
// the number of pre-run (p,w) samples.
func fig8SampleEfficiency(opt Options) (Table, error) {
	m := workload.ZooByName("resnet-50")
	t := Table{
		ID:      "fig8",
		Title:   "Speed-estimation error vs number of profiling samples",
		Columns: []string{"samples", "mean-error%"},
		Notes:   "<10% error from ~10 samples, with diminishing returns (paper Fig. 8)",
	}
	rng := rand.New(rand.NewSource(opt.Seed + 8))
	var full [][2]int
	for p := 1; p <= 12; p++ {
		for w := 1; w <= 12; w++ {
			full = append(full, [2]int{p, w})
		}
	}
	counts := []int{6, 8, 10, 12, 16, 24}
	const trials = 30
	for _, n := range counts {
		var meanErr float64
		ok := 0
		for trial := 0; trial < trials; trial++ {
			idx := rng.Perm(len(full))[:n]
			var samples []speedfit.Sample
			for _, i := range idx {
				c := full[i]
				truth := m.TrueSpeed(speedfit.Async, c[0], c[1])
				samples = append(samples, speedfit.Sample{
					P: c[0], W: c[1],
					Speed: truth * (1 + 0.02*rng.NormFloat64()),
				})
			}
			model, err := speedfit.Fit(speedfit.Async, samples, 0)
			if err != nil {
				continue
			}
			var sum float64
			for _, c := range full {
				truth := m.TrueSpeed(speedfit.Async, c[0], c[1])
				sum += math.Abs(model.Speed(c[0], c[1])-truth) / truth
			}
			meanErr += sum / float64(len(full))
			ok++
		}
		if ok == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), f2(meanErr / float64(ok) * 100),
		})
		if len(t.Series) == 0 {
			t.Series = []ascii.Series{{Name: "mean error %"}}
		}
		t.Series[0].X = append(t.Series[0].X, float64(n))
		t.Series[0].Y = append(t.Series[0].Y, meanErr/float64(ok)*100)
	}
	return t, nil
}

// speedSamples collects noisy ground-truth observations over a (p,w) grid.
func speedSamples(m *workload.Model, mode speedfit.Mode, maxP, maxW int,
	noise float64, rng *rand.Rand) []speedfit.Sample {
	var out []speedfit.Sample
	for p := 1; p <= maxP; p++ {
		for w := 1; w <= maxW; w++ {
			truth := m.TrueSpeed(mode, p, w)
			if truth <= 0 {
				continue
			}
			s := truth * (1 + noise*rng.NormFloat64())
			if s <= 0 {
				s = truth
			}
			out = append(out, speedfit.Sample{P: p, W: w, Speed: s})
		}
	}
	return out
}

// fig9SpeedFunctions regenerates Fig. 9: measured points vs fitted speed
// curves for ResNet-50 in both training modes (the paper's four panels).
func fig9SpeedFunctions(opt Options) (Table, error) {
	m := workload.ZooByName("resnet-50")
	rng := rand.New(rand.NewSource(opt.Seed + 9))
	t := Table{
		ID:      "fig9",
		Title:   "Measured vs fitted training speed, ResNet-50 (40 containers)",
		Columns: []string{"panel", "ps", "workers", "measured", "fitted"},
	}
	for _, mode := range []speedfit.Mode{speedfit.Async, speedfit.Sync} {
		samples := speedSamples(m, mode, 20, 20, 0.02, rng)
		model, err := speedfit.Fit(mode, samples, float64(m.GlobalBatch))
		if err != nil {
			return Table{}, err
		}
		for _, ps := range []int{6, 12, 18} {
			for w := 4; w <= 20; w += 4 {
				t.Rows = append(t.Rows, []string{
					mode.String(), fmt.Sprint(ps), fmt.Sprint(w),
					f(m.TrueSpeed(mode, ps, w)), f(model.Speed(ps, w)),
				})
			}
		}
	}
	return t, nil
}

// table2Coefficients regenerates Table 2: the fitted θ coefficients of the
// speed functions and their residuals.
func table2Coefficients(opt Options) (Table, error) {
	m := workload.ZooByName("resnet-50")
	rng := rand.New(rand.NewSource(opt.Seed + 2))
	t := Table{
		ID:      "table2",
		Title:   "Fitted speed-function coefficients (ResNet-50)",
		Columns: []string{"mode", "th0", "th1", "th2", "th3", "th4", "residual-ss"},
		Notes:   "compute+transfer terms dominate, as in the paper's Table 2",
	}
	for _, mode := range []speedfit.Mode{speedfit.Async, speedfit.Sync} {
		samples := speedSamples(m, mode, 20, 20, 0.01, rng)
		model, err := speedfit.Fit(mode, samples, float64(m.GlobalBatch))
		if err != nil {
			return Table{}, err
		}
		row := []string{mode.String()}
		for i := 0; i < 5; i++ {
			if i < len(model.Theta) {
				row = append(row, f(model.Theta[i]))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, f(model.Residual))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig10PlacementExample regenerates the paper's worked placement example
// (§4.2 Fig. 10): 2 PS + 4 workers over a small homogeneous cluster. The
// cross-server transfer time of the Theorem-1 even spread must beat skewed
// spreads over the same servers and improve as the server count shrinks.
func fig10PlacementExample(Options) (Table, error) {
	m := workload.ZooByName("resnet-50")
	t := Table{
		ID:      "fig10",
		Title:   "Placement example: cross-server transfer time of 2 PS + 4 workers",
		Columns: []string{"placement", "servers", "transfer-time(s)"},
		Notes:   "Theorem 1: even counts on the fewest servers minimize transfer time",
	}
	cases := []struct {
		name   string
		spread workload.TaskSpread
	}{
		{"even-1-server", workload.EvenSpread(2, 4, 1)},
		{"even-2-servers", workload.EvenSpread(2, 4, 2)},
		{"even-3-servers", workload.EvenSpread(2, 4, 3)},
		{"paper(a)=even-2", workload.TaskSpread{PSOnNode: []int{1, 1, 0}, WorkersOnNode: []int{2, 2, 0}}},
		{"paper(b)=skewed", workload.TaskSpread{PSOnNode: []int{2, 0, 0}, WorkersOnNode: []int{1, 3, 0}}},
	}
	for _, c := range cases {
		used := 0
		for i := range c.spread.PSOnNode {
			if c.spread.PSOnNode[i]+c.spread.WorkersOnNode[i] > 0 {
				used++
			}
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprint(used), f(m.CrossServerTransferTime(c.spread) * 2),
		})
	}
	return t, nil
}

// table1Workloads regenerates Table 1: the nine deep-learning jobs used for
// tests and experiments, with their reproduction physics alongside the
// paper's reported attributes.
func table1Workloads(Options) (Table, error) {
	t := Table{
		ID:    "table1",
		Title: "Deep learning jobs used for tests and experiments",
		Columns: []string{
			"model", "params(M)", "type", "domain", "dataset",
			"examples", "blocks", "sync-batch",
		},
	}
	for _, m := range workload.Zoo() {
		t.Rows = append(t.Rows, []string{
			m.Name, f(m.ParamsMillion), m.NetType, m.Domain, m.Dataset,
			fmt.Sprint(m.DatasetSize), fmt.Sprint(m.NumBlocks), fmt.Sprint(m.GlobalBatch),
		})
	}
	return t, nil
}
