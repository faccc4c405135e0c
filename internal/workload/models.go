// Package workload defines the deep-learning job zoo of Table 1 and the
// ground-truth physics that drive the simulator: per-model step times
// following Eqn 2 of the paper, training-loss curves following the §3.1
// convergence model, per-layer parameter-block distributions (for the §5.3
// load-balancing study), and job arrival processes (§6.1/§6.3).
//
// The scheduler never reads this ground truth directly — it only sees
// sampled (step, loss) and (p, w, speed) observations, exactly as in the
// paper. The constants below are calibrated so that the qualitative shapes
// of the paper's figures (diminishing returns, interior sync-speed optimum,
// minutes-to-weeks training-time spread) are preserved, not the absolute
// numbers, which depended on the authors' hardware.
package workload

import (
	"fmt"
	"math"

	"optimus/internal/cluster"
	"optimus/internal/speedfit"
)

// Model describes one Table-1 training workload and its simulation physics.
type Model struct {
	Name          string
	ParamsMillion float64 // number of parameters, millions
	NetType       string  // "CNN" or "RNN"
	Domain        string  // application domain
	Dataset       string
	DatasetSize   int // number of examples

	// --- physics for Eqn 2 (ground truth; seconds and bytes) ---
	ModelBytes   float64 // S: total parameter bytes (4 bytes/param)
	BatchPerWkr  int     // m: per-worker mini-batch (async)
	GlobalBatch  int     // M: global batch size (sync)
	FwdPerEx     float64 // T_forward: per-example forward time
	Backward     float64 // T_back: backward time per step (m-independent per §3.2)
	UpdateRate   float64 // bytes/s a PS applies updates at (T_update = S/UpdateRate)
	PSBandwidth  float64 // B: per-PS NIC bandwidth, bytes/s
	WkrBandwidth float64 // b: per-worker NIC bandwidth, bytes/s
	OverheadWkr  float64 // δ: per-worker communication overhead, s
	OverheadPS   float64 // δ': per-PS communication overhead, s

	// --- loss-curve truth (normalized, epoch-indexed): l(E)=1/(β0·E+β1)+β2 ---
	LossB0, LossB1, LossB2 float64

	// --- resource profiles (what one task requests) ---
	WorkerRes cluster.Resources
	PSRes     cluster.Resources

	// NumBlocks is the number of parameter blocks (NN layers) the model
	// splits into, used by the §5.3 parameter-assignment study.
	NumBlocks int
}

// Container profiles, following §2.3/§6.1: the paper's containers use 5 CPU
// cores and 10 GB memory. We keep CNN workers CPU-heavy and RNN workers
// memory-heavy (recurrent state), and give parameter servers of large models
// more memory, so dominant-resource reasoning (DRF, §4.1 normalization) has
// real heterogeneity to work with.
var (
	cpuWorker = cluster.Resources{cluster.CPU: 5, cluster.Memory: 10}
	rnnWorker = cluster.Resources{cluster.CPU: 4, cluster.Memory: 14}
	psProfile = cluster.Resources{cluster.CPU: 3, cluster.Memory: 8}
	psBig     = cluster.Resources{cluster.CPU: 3, cluster.Memory: 14}
)

const bytesPerParam = 4 // float32 parameters

// mb converts millions of parameters to bytes.
func mb(millions float64) float64 { return millions * 1e6 * bytesPerParam }

const gbe = 125e6 // 1 GbE in bytes/s, the testbed's switch (§6.1)

// Zoo returns the nine Table-1 models with calibrated physics. The slice is
// freshly allocated on each call so callers may mutate entries.
func Zoo() []*Model {
	return []*Model{
		{
			Name: "resnext-110", ParamsMillion: 1.7, NetType: "CNN",
			Domain: "image classification", Dataset: "CIFAR10", DatasetSize: 60000,
			ModelBytes: mb(1.7), BatchPerWkr: 128, GlobalBatch: 512,
			FwdPerEx: 0.0022, Backward: 0.35, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.016, OverheadPS: 0.016,
			LossB0: 0.18, LossB1: 1.0, LossB2: 0.05,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 110,
		},
		{
			Name: "resnet-50", ParamsMillion: 25, NetType: "CNN",
			Domain: "image classification", Dataset: "ImageNet", DatasetSize: 1313788,
			ModelBytes: mb(25), BatchPerWkr: 32, GlobalBatch: 256,
			FwdPerEx: 0.012, Backward: 0.9, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.024, OverheadPS: 0.024,
			LossB0: 0.12, LossB1: 0.9, LossB2: 0.08,
			WorkerRes: cpuWorker, PSRes: psBig, NumBlocks: 157,
		},
		{
			Name: "inception-bn", ParamsMillion: 11.3, NetType: "CNN",
			Domain: "image classification", Dataset: "Caltech", DatasetSize: 30607,
			ModelBytes: mb(11.3), BatchPerWkr: 64, GlobalBatch: 256,
			FwdPerEx: 0.006, Backward: 0.55, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.020, OverheadPS: 0.020,
			LossB0: 0.2, LossB1: 1.1, LossB2: 0.06,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 120,
		},
		{
			Name: "kaggle", ParamsMillion: 1.4, NetType: "CNN",
			Domain: "image classification", Dataset: "Kaggle-NDSB1", DatasetSize: 37920,
			ModelBytes: mb(1.4), BatchPerWkr: 64, GlobalBatch: 256,
			FwdPerEx: 0.0018, Backward: 0.2, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.012, OverheadPS: 0.012,
			LossB0: 0.3, LossB1: 1.2, LossB2: 0.04,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 24,
		},
		{
			Name: "cnn-rand", ParamsMillion: 6, NetType: "CNN",
			Domain: "sentence classification", Dataset: "MR", DatasetSize: 10662,
			ModelBytes: mb(6), BatchPerWkr: 50, GlobalBatch: 200,
			FwdPerEx: 0.0012, Backward: 0.1, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.012, OverheadPS: 0.012,
			LossB0: 0.5, LossB1: 1.0, LossB2: 0.03,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 8,
		},
		{
			Name: "dssm", ParamsMillion: 1.5, NetType: "RNN",
			Domain: "word representation", Dataset: "text8", DatasetSize: 214288,
			ModelBytes: mb(1.5), BatchPerWkr: 256, GlobalBatch: 1024,
			FwdPerEx: 0.0008, Backward: 0.12, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.012, OverheadPS: 0.012,
			LossB0: 0.25, LossB1: 1.3, LossB2: 0.07,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 6,
		},
		{
			Name: "rnn-lstm", ParamsMillion: 4.7, NetType: "RNN",
			Domain: "language modeling", Dataset: "PTB", DatasetSize: 1002000,
			ModelBytes: mb(4.7), BatchPerWkr: 128, GlobalBatch: 512,
			FwdPerEx: 0.0015, Backward: 0.25, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.016, OverheadPS: 0.016,
			LossB0: 0.15, LossB1: 1.0, LossB2: 0.1,
			WorkerRes: cpuWorker, PSRes: psProfile, NumBlocks: 12,
		},
		{
			Name: "seq2seq", ParamsMillion: 9.1, NetType: "RNN",
			Domain: "machine translation", Dataset: "WMT17", DatasetSize: 1000000,
			ModelBytes: mb(9.1), BatchPerWkr: 64, GlobalBatch: 256,
			FwdPerEx: 0.005, Backward: 0.6, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.020, OverheadPS: 0.020,
			// Fig. 7 fitted values: β0=0.21, β1=1.07, β2=0.07.
			LossB0: 0.21, LossB1: 1.07, LossB2: 0.07,
			WorkerRes: rnnWorker, PSRes: psProfile, NumBlocks: 30,
		},
		{
			Name: "ds2", ParamsMillion: 38, NetType: "RNN",
			Domain: "speech recognition", Dataset: "LibriSpeech", DatasetSize: 45000,
			ModelBytes: mb(38), BatchPerWkr: 16, GlobalBatch: 64,
			FwdPerEx: 0.05, Backward: 1.6, UpdateRate: 400e6,
			PSBandwidth: gbe, WkrBandwidth: gbe, OverheadWkr: 0.032, OverheadPS: 0.032,
			LossB0: 0.1, LossB1: 0.8, LossB2: 0.12,
			WorkerRes: rnnWorker, PSRes: psBig, NumBlocks: 45,
		},
	}
}

// zooTable is the zoo ZooByName searches, built once.
var zooTable = Zoo()

// ZooByName returns a fresh copy of the model with the given name, or nil.
// Model holds only strings, numbers and arrays, so callers may mutate the
// copy.
func ZooByName(name string) *Model {
	for _, m := range zooTable {
		if m.Name == name {
			c := *m
			return &c
		}
	}
	return nil
}

// StepsPerEpoch returns the number of training steps per epoch for the given
// mode, after applying a dataset downscale factor in (0, 1] (the §6.1 trick
// that keeps experiment runs to ~6 hours).
func (m *Model) StepsPerEpoch(mode speedfit.Mode, w int, downscale float64) int {
	if downscale <= 0 || downscale > 1 {
		downscale = 1
	}
	examples := float64(m.DatasetSize) * downscale
	var perStep float64
	switch mode {
	case speedfit.Sync:
		perStep = float64(m.GlobalBatch) // w workers each do M/w
	default:
		// Async: each of the w workers processes its own m examples per
		// step; one "job step" of aggregate progress covers w·m examples.
		if w < 1 {
			w = 1
		}
		perStep = float64(m.BatchPerWkr * w)
	}
	steps := int(math.Ceil(examples / perStep))
	if steps < 1 {
		steps = 1
	}
	return steps
}

// TrueStepTime evaluates Eqn 2 — the ground-truth duration of one training
// step with p parameter servers and w workers, assuming ideal (colocation-
// free) placement:
//
//	T = m·T_fwd + T_back + 2·(S/p)/(B/w') + T_update·w'/p + δ·w + δ'·p
//
// with w' = w (all workers push to each PS per step; for async the paper
// assumes w' grows linearly in w).
func (m *Model) TrueStepTime(mode speedfit.Mode, p, w int) float64 {
	if p < 1 || w < 1 {
		return math.Inf(1)
	}
	pf, wf := float64(p), float64(w)
	var mEff float64
	switch mode {
	case speedfit.Sync:
		mEff = float64(m.GlobalBatch) / wf
	default:
		mEff = float64(m.BatchPerWkr)
	}
	compute := mEff*m.FwdPerEx + m.Backward
	transfer := 2 * (m.ModelBytes / pf) * wf / m.PSBandwidth
	update := (m.ModelBytes / m.UpdateRate) * wf / pf
	overhead := m.OverheadWkr*wf + m.OverheadPS*pf
	return compute + transfer + update + overhead
}

// TrueSpeed is the ground-truth training speed in steps/second (Eqns 3–4):
// w/T for async (aggregate progress across workers), 1/T for sync.
func (m *Model) TrueSpeed(mode speedfit.Mode, p, w int) float64 {
	t := m.TrueStepTime(mode, p, w)
	if math.IsInf(t, 1) || t <= 0 {
		return 0
	}
	if mode == speedfit.Async {
		return float64(w) / t
	}
	return 1 / t
}

// TrueLoss evaluates the ground-truth normalized loss after `epoch` epochs.
func (m *Model) TrueLoss(epoch float64) float64 {
	den := m.LossB0*epoch + m.LossB1
	if den <= 0 {
		return 1 + m.LossB2
	}
	return 1/den + m.LossB2
}

// EpochsToConverge returns the ground-truth number of epochs until the
// per-epoch normalized-loss decrease stays below threshold for `consecutive`
// consecutive epochs (§2.1's completion rule).
func (m *Model) EpochsToConverge(threshold float64, consecutive int) float64 {
	if threshold <= 0 {
		threshold = 0.01
	}
	if consecutive < 1 {
		consecutive = 1
	}
	e := 1.0
	for m.TrueLoss(e)-m.TrueLoss(e+1) >= threshold {
		e++
		if e > 1e7 {
			return math.Inf(1)
		}
	}
	return e + float64(consecutive)
}

// Validate checks internal consistency of the model constants.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("workload: model has no name")
	case m.ModelBytes <= 0:
		return fmt.Errorf("workload: %s: non-positive model size", m.Name)
	case m.BatchPerWkr <= 0 || m.GlobalBatch <= 0:
		return fmt.Errorf("workload: %s: non-positive batch size", m.Name)
	case m.FwdPerEx <= 0 || m.Backward <= 0:
		return fmt.Errorf("workload: %s: non-positive compute time", m.Name)
	case m.PSBandwidth <= 0 || m.WkrBandwidth <= 0 || m.UpdateRate <= 0:
		return fmt.Errorf("workload: %s: non-positive rate", m.Name)
	case m.LossB0 <= 0 || m.LossB1 <= 0 || m.LossB2 < 0:
		return fmt.Errorf("workload: %s: invalid loss curve", m.Name)
	case m.DatasetSize <= 0:
		return fmt.Errorf("workload: %s: non-positive dataset", m.Name)
	case m.NumBlocks <= 0:
		return fmt.Errorf("workload: %s: non-positive block count", m.Name)
	}
	return nil
}
