package psys

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"optimus/internal/speedfit"
)

// AssignStrategy selects the block→server distribution algorithm (§5.3).
type AssignStrategy string

const (
	// AssignPAA uses the paper's Parameter Assignment Algorithm.
	AssignPAA AssignStrategy = "paa"
	// AssignMXNet uses MXNet's default threshold heuristic.
	AssignMXNet AssignStrategy = "mxnet"
)

// TransportKind selects the worker↔server data plane.
type TransportKind string

const (
	// TransportLocal uses direct in-process calls.
	TransportLocal TransportKind = "local"
	// TransportTCP runs each server behind a TCP listener with gob framing.
	TransportTCP TransportKind = "tcp"
)

// JobConfig describes one training job.
type JobConfig struct {
	Model     Model
	Data      Batch
	Mode      speedfit.Mode
	Workers   int
	Servers   int
	BatchSize int
	LR        float64
	// Momentum is the servers' SGD momentum coefficient in [0, 1).
	Momentum float64
	// BlockSizes partitions the parameter vector; empty means an even split
	// into 2·Servers blocks.
	BlockSizes []int
	Assignment AssignStrategy // default AssignPAA
	Transport  TransportKind  // default TransportLocal
	ChunkSize  int            // §5.1 chunk granularity; 0 → dataset/4·workers
	Seed       int64
	// InitParams seeds the parameter vector (used by checkpoint restore);
	// nil means small random initialization.
	InitParams []float64
	// WorkerDelays injects per-worker artificial step delays by worker ID
	// (straggler experiments).
	WorkerDelays map[int]time.Duration
}

func (c *JobConfig) validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("psys: no model")
	case c.Data.Len() == 0:
		return fmt.Errorf("psys: no data")
	case c.Workers <= 0:
		return fmt.Errorf("psys: invalid worker count %d", c.Workers)
	case c.Servers <= 0:
		return fmt.Errorf("psys: invalid server count %d", c.Servers)
	case c.BatchSize <= 0:
		return fmt.Errorf("psys: invalid batch size %d", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("psys: invalid learning rate %g", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("psys: invalid momentum %g", c.Momentum)
	case c.InitParams != nil && len(c.InitParams) != c.Model.Dim():
		return fmt.Errorf("psys: init params dim %d, model dim %d",
			len(c.InitParams), c.Model.Dim())
	}
	return nil
}

// StepStat is one worker-step measurement.
type StepStat struct {
	Worker   int
	Step     int
	Loss     float64
	Duration time.Duration // wall time including barrier waits
	Compute  time.Duration // gradient-production time only (§5.2 signal)
}

// Job is a running training job: servers, workers and the data layer.
type Job struct {
	cfg JobConfig
	plan
	servers []*Server
	tcp     []*TCPServer
	workers []*Worker

	mu       sync.Mutex
	stopped  bool
	rounds   int  // completed RunSteps rounds across the job's lifetime
	ckptFail bool // next SaveCheckpoint fails (armed by FailNextCheckpoint)
}

// plan is everything about a job that does not depend on where its tasks
// run: the parameter layout, the §5.3 block owners, the initial parameters
// and the §5.1 chunk store with each worker's chunks assigned. StartJob
// wires it into in-process servers and workers; a Coordinator hands it out
// to server and worker processes.
type plan struct {
	layout BlockLayout
	owner  []int // block → server index
	init   []float64
	chunks *ChunkStore
}

// newPlan derives a job's plan from a validated config with defaults set.
func newPlan(cfg JobConfig) (plan, error) {
	dim := cfg.Model.Dim()
	var layout BlockLayout
	var err error
	if len(cfg.BlockSizes) > 0 {
		layout, err = NewBlockLayout(cfg.BlockSizes)
		if err == nil && layout.Dim() != dim {
			err = fmt.Errorf("psys: blocks sum to %d, model dim %d", layout.Dim(), dim)
		}
	} else {
		layout, err = EvenLayout(dim, 2*cfg.Servers)
	}
	if err != nil {
		return plan{}, err
	}

	// §5.3: distribute blocks over servers. Unlike the offline psassign
	// study, a live block cannot be sliced across processes, so ownership is
	// decided at block granularity with the same greedy rules.
	if cfg.Assignment != AssignPAA && cfg.Assignment != AssignMXNet {
		return plan{}, fmt.Errorf("psys: unknown assignment %q", cfg.Assignment)
	}
	sizes64 := make([]int64, len(layout.Sizes))
	for i, s := range layout.Sizes {
		sizes64[i] = int64(s)
	}
	owner := assignOwners(sizes64, cfg.Servers, cfg.Assignment, cfg.Seed)

	init := cfg.InitParams
	if init == nil {
		r := rand.New(rand.NewSource(cfg.Seed + 101))
		init = make([]float64, dim)
		for i := range init {
			init[i] = r.NormFloat64() * 0.01
		}
	}

	chunkSize := cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = max(1, cfg.Data.Len()/(4*cfg.Workers))
	}
	chunks, err := NewChunkStore(cfg.Data, chunkSize)
	if err != nil {
		return plan{}, err
	}
	ids := make([]int, cfg.Workers)
	for i := range ids {
		ids[i] = i
	}
	if err := chunks.Assign(ids); err != nil {
		return plan{}, err
	}
	return plan{layout: layout, owner: owner, init: init, chunks: chunks}, nil
}

// StartJob plans a job, then wires it up in this process: servers hosting
// their blocks, transports, and workers on their shards.
func StartJob(cfg JobConfig) (*Job, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Assignment == "" {
		cfg.Assignment = AssignPAA
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportLocal
	}
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	j := &Job{cfg: cfg, plan: p}

	// Servers host their blocks.
	for s := 0; s < cfg.Servers; s++ {
		srv, err := NewServer(cfg.Mode, cfg.LR, cfg.Workers)
		if err != nil {
			return nil, err
		}
		if cfg.Momentum > 0 {
			if err := srv.SetMomentum(cfg.Momentum); err != nil {
				return nil, err
			}
		}
		j.servers = append(j.servers, srv)
	}
	for b, off := range p.layout.Offsets {
		if err := j.servers[p.owner[b]].Host(b, p.init[off:off+p.layout.Sizes[b]]); err != nil {
			j.Stop()
			return nil, err
		}
	}

	// Transports.
	dial := func(s int) (ServerConn, error) { return LocalConn(j.servers[s]), nil }
	if cfg.Transport == TransportTCP {
		for _, srv := range j.servers {
			ts, err := ServeTCP(srv, "127.0.0.1:0")
			if err != nil {
				j.Stop()
				return nil, err
			}
			j.tcp = append(j.tcp, ts)
		}
		dial = func(s int) (ServerConn, error) { return DialServer(j.tcp[s].Addr()) }
	}

	// Workers.
	for i := 0; i < cfg.Workers; i++ {
		conns := make([]ServerConn, cfg.Servers)
		for s := range conns {
			c, err := dial(s)
			if err != nil {
				j.Stop()
				return nil, err
			}
			conns[s] = c
		}
		w := newWorker(i, cfg.Model, p.layout, p.owner, conns, p.chunks.Shard(i),
			cfg.BatchSize, cfg.Mode == speedfit.Sync)
		if d, ok := cfg.WorkerDelays[i]; ok {
			w.SetDelay(d)
		}
		j.workers = append(j.workers, w)
	}
	return j, nil
}

// assignOwners maps each block to a server using the selected strategy. The
// psassign algorithms report aggregate loads; here we need the actual
// per-block ownership, so we re-run the same greedy rules at block
// granularity (without slicing: a block lives on exactly one server, since
// a live parameter block cannot be split across processes mid-training).
func assignOwners(sizes []int64, servers int, strategy AssignStrategy, seed int64) []int {
	owner := make([]int, len(sizes))
	load := make([]int64, servers)
	switch strategy {
	case AssignMXNet:
		r := rand.New(rand.NewSource(seed))
		for b := range sizes {
			owner[b] = r.Intn(servers)
			load[owner[b]] += sizes[b]
		}
	default: // PAA-style: largest block to least-loaded server
		order := make([]int, len(sizes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return sizes[order[i]] > sizes[order[j]] })
		for _, b := range order {
			best := 0
			for s := 1; s < servers; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
			owner[b] = best
			load[best] += sizes[b]
		}
	}
	return owner
}

// RunSteps drives every worker for n steps concurrently and returns the
// per-step measurements. In sync mode the server-side version barrier keeps
// the workers in lockstep; in async mode they free-run.
func (j *Job) RunSteps(n int) ([]StepStat, error) {
	if n <= 0 {
		return nil, fmt.Errorf("psys: invalid step count %d", n)
	}
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	j.mu.Unlock()

	stats := make([][]StepStat, len(j.workers))
	errs := make([]error, len(j.workers))
	var wg sync.WaitGroup
	for i, w := range j.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			for s := 0; s < n; s++ {
				start := time.Now()
				loss, err := w.Step()
				if err != nil {
					errs[i] = err
					return
				}
				stats[i] = append(stats[i], StepStat{
					Worker:   w.ID,
					Step:     w.Round(),
					Loss:     loss,
					Duration: time.Since(start),
					Compute:  w.lastCompute,
				})
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []StepStat
	for _, s := range stats {
		out = append(out, s...)
	}
	j.mu.Lock()
	j.rounds += n
	j.mu.Unlock()
	return out, nil
}

// Params gathers the full parameter vector from the servers.
func (j *Job) Params() ([]float64, error) {
	out := make([]float64, j.layout.Dim())
	for b, off := range j.layout.Offsets {
		params, _, err := j.servers[j.owner[b]].Pull(b, 0)
		if err != nil {
			return nil, err
		}
		copy(out[off:off+j.layout.Sizes[b]], params)
	}
	return out, nil
}

// Loss evaluates the model's current loss on the full dataset.
func (j *Job) Loss() (float64, error) {
	params, err := j.Params()
	if err != nil {
		return 0, err
	}
	return j.cfg.Model.Loss(params, j.cfg.Data), nil
}

// Rounds returns the number of steps each worker has been driven through.
func (j *Job) Rounds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rounds
}

// Workers returns the current worker count.
func (j *Job) Workers() int { return len(j.workers) }

// Servers returns the current server count.
func (j *Job) Servers() int { return len(j.servers) }

// ChunkImbalance exposes the §5.1 data balance metric.
func (j *Job) ChunkImbalance() int { return j.chunks.Imbalance() }

// DetectStragglers applies the §5.2 rule to a measurement batch: a worker
// whose mean step speed falls below half the median speed is a straggler.
// For synchronous jobs the barrier equalizes wall durations, so — like the
// paper, which watches gradient arrival times on the servers — detection
// uses each worker's gradient-production time when available.
func DetectStragglers(stats []StepStat) []int {
	durs := make(map[int][]time.Duration)
	for _, s := range stats {
		d := s.Compute
		if d <= 0 {
			d = s.Duration
		}
		durs[s.Worker] = append(durs[s.Worker], d)
	}
	if len(durs) == 0 {
		return nil
	}
	speed := make(map[int]float64, len(durs))
	var speeds []float64
	for w, ds := range durs {
		// Per-worker median resists one-off scheduling/GC hiccups that
		// would otherwise flag healthy workers.
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		med := ds[len(ds)/2]
		if med <= 0 {
			med = time.Nanosecond
		}
		v := 1 / med.Seconds()
		speed[w] = v
		speeds = append(speeds, v)
	}
	sort.Float64s(speeds)
	median := speeds[len(speeds)/2]
	var out []int
	for w, v := range speed {
		if v < 0.5*median {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// InjectWorkerDelay degrades one worker's step time in place — the chaos
// straggler fault against a live job. Safe while RunSteps is in flight.
func (j *Job) InjectWorkerDelay(id int, d time.Duration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, w := range j.workers {
		if w.ID == id {
			w.SetDelay(d)
			return nil
		}
	}
	return fmt.Errorf("psys: no worker %d", id)
}

// FailNextCheckpoint arms a one-shot checkpoint-write failure: the next
// SaveCheckpoint returns ErrCheckpointFailed without touching the file (the
// chaos stand-in for a failed HDFS write, §5.4).
func (j *Job) FailNextCheckpoint() {
	j.mu.Lock()
	j.ckptFail = true
	j.mu.Unlock()
}

// ReplaceWorker implements §5.2's remediation: the straggler is torn down
// and a fresh worker (same ID, same shard, no injected delay) takes over at
// the same training round. Must not be called while RunSteps is in flight.
func (j *Job) ReplaceWorker(id int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, w := range j.workers {
		if w.ID != id {
			continue
		}
		round := w.round
		w.closeConns()
		conns := make([]ServerConn, len(j.servers))
		for s := range conns {
			if len(j.tcp) > 0 {
				c, err := DialServer(j.tcp[s].Addr())
				if err != nil {
					return err
				}
				conns[s] = c
			} else {
				conns[s] = LocalConn(j.servers[s])
			}
		}
		nw := newWorker(id, j.cfg.Model, j.layout, j.owner, conns,
			j.chunks.Shard(id), j.cfg.BatchSize, j.cfg.Mode == speedfit.Sync)
		nw.round = round
		j.workers[i] = nw
		return nil
	}
	return fmt.Errorf("psys: no worker %d", id)
}

// Stop tears the job down: workers' connections, TCP listeners, servers.
func (j *Job) Stop() {
	j.mu.Lock()
	if j.stopped {
		j.mu.Unlock()
		return
	}
	j.stopped = true
	j.mu.Unlock()
	for _, w := range j.workers {
		w.closeConns()
	}
	for _, t := range j.tcp {
		_ = t.Close() // closes the underlying server too
	}
	for _, s := range j.servers {
		s.Close()
	}
}
