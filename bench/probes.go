package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/lossfit"
	"optimus/internal/nnls"
	"optimus/internal/serve"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/wal"
	"optimus/internal/workload"
)

// The probes time each layer's entry points from outside, one layer at a
// time. The contract has every traced run report every per-layer metric, so
// every traced run carries the whole battery: a kernel change shows as the
// same probe moving on every workload while only some end-to-end numbers
// follow.
//
// fixedProbes do not depend on the workload (nnls, lossfit, a small sim.Run,
// wal, the daemon's request paths, recovery of a small daemon); a suite runs
// them once and every workload's traced report carries the same readings.
// shapedProbes time the kernels whose cost depends on the job and node
// counts (speedfit/view, core, cluster) at the workload's own.

// probeShape is the workload's scale as the kernels see it.
type probeShape struct{ jobs, nodes int }

var probeShapes = map[string]probeShape{
	// About the replay's peak concurrent jobs on its cluster.
	"replay":       {replayJobs / 10, replayNodes},
	"rounds-dense": {denseShape.jobs, denseShape.nodes},
	"rounds-wide":  {wideShape.jobs, wideShape.nodes},
	"serve-read":   {serveJobs, serveNodes},
	"serve-write":  {serveJobs, serveNodes},
}

// probeSet collects layer metrics.
type probeSet struct{ out []metric }

func (p *probeSet) add(name string, v float64, unit string, n int) {
	p.out = append(p.out, metric{Name: name, Value: v, Unit: unit, N: n})
}

// us records the median of per-call microsecond samples.
func (p *probeSet) us(name string, samples []float64) {
	p.add(name, median(samples), "us", len(samples))
}

func fixedProbes(e *env) ([]metric, error) {
	p := &probeSet{}
	rng := rand.New(rand.NewSource(e.seed))
	probeNNLS(p, rng)
	probeLossfit(p, rng)
	if err := probeSimRun(p, e); err != nil {
		return nil, err
	}
	if err := probeWAL(p, e); err != nil {
		return nil, err
	}
	if err := probeServe(p, e); err != nil {
		return nil, err
	}
	if err := probeRecovery(p, e); err != nil {
		return nil, err
	}
	return p.out, nil
}

func shapedProbes(e *env) []metric {
	base := probeShapes[e.workload]
	shape := probeShape{e.sized(base.jobs, 4), e.sized(base.nodes, 2)}
	p := &probeSet{}
	rng := rand.New(rand.NewSource(e.seed + 1))
	probeSpeedfitAndView(p, rng, shape)
	probeCore(p, rng, shape)
	probeCluster(p, shape)
	return p.out
}

// lossTrajectory is n noisy ground-truth loss observations of one model,
// one per epoch: what lossfit sees from a running job.
func lossTrajectory(rng *rand.Rand, m *workload.Model, n int) []lossfit.Point {
	pts := make([]lossfit.Point, n)
	for i := range pts {
		k := float64(i + 1)
		pts[i] = lossfit.Point{K: k, Loss: m.TrueLoss(k) * (1 + 0.03*rng.NormFloat64())}
	}
	return pts
}

// probeNNLS solves a lossfit-shaped system (rows of [k, 1] against
// 1/(loss - asymptote)) cold and through a warm workspace.
func probeNNLS(p *probeSet, rng *rand.Rand) {
	const rows = 128
	pts := lossTrajectory(rng, workload.Zoo()[0], rows)
	a := nnls.NewMatrix(rows, 2)
	b := make([]float64, rows)
	for i, pt := range pts {
		a.Set(i, 0, pt.K)
		a.Set(i, 1, 1)
		b[i] = 1 / (pt.Loss - 0.01)
	}
	p.us("nnls.solve_us_cold", timeEach(50, 20, func() { _, _, _ = nnls.Solve(a, b) }))
	ws := nnls.NewWorkspace()
	_, _, _ = ws.Solve(a, b)
	p.us("nnls.solve_us_warm", timeEach(50, 20, func() { _, _, _ = ws.Solve(a, b) }))
}

// probeLossfit times Fitter.Add, and Fitter.Fit right after one new point
// (the steady state of a running job: one observation per round, then a
// refit) at three history lengths.
func probeLossfit(p *probeSet, rng *rand.Rand) {
	m := workload.Zoo()[1]
	pts := lossTrajectory(rng, m, 512+8)
	f := lossfit.NewFitter()
	i := 0
	p.us("lossfit.add_us", timeEach(20, 25, func() {
		_ = f.Add(pts[i].K, pts[i].Loss)
		i++
	}))
	for _, n := range []int{32, 128, 512} {
		f := lossfit.NewFitter()
		for _, pt := range pts[:n-4] {
			_ = f.Add(pt.K, pt.Loss)
		}
		_, _ = f.Fit()
		next := n - 4
		p.us(fmt.Sprintf("lossfit.fit_us_n%d", n), timeEach(9, 1, func() {
			// Add is a few dozen nanoseconds against a fit of many
			// microseconds; it stays inside the sample.
			_ = f.Add(pts[next].K, pts[next].Loss)
			next++
			_, _ = f.Fit()
		}))
	}
}

// fittedJob is one job with its estimators fed as a running job's are.
type fittedJob struct {
	spec workload.JobSpec
	fit  *lossfit.Fitter
	est  *speedfit.Estimator
	prog float64
}

func newFittedJob(rng *rand.Rand, spec workload.JobSpec, epochs int) *fittedJob {
	j := &fittedJob{spec: spec, fit: lossfit.NewFitter(),
		est: speedfit.NewEstimator(spec.Mode, float64(spec.Model.GlobalBatch))}
	sim.PreRunProfile(j.est, spec, 5, 0.03, rng)
	for _, pt := range lossTrajectory(rng, spec.Model, epochs) {
		_ = j.fit.Add(pt.K, pt.Loss)
	}
	j.prog = float64(epochs)
	return j
}

// observe feeds one more round of measurements, as serve's engine does.
func (j *fittedJob) observe(rng *rand.Rand, ps, w int) {
	j.prog++
	_ = j.fit.Add(j.prog, j.spec.Model.TrueLoss(j.prog)*(1+0.03*rng.NormFloat64()))
	_ = j.est.Observe(ps, w, j.spec.Model.TrueSpeed(j.spec.Mode, ps, w)*(1+0.03*rng.NormFloat64()))
}

func (j *fittedJob) view(c *cluster.Cluster) *core.JobInfo {
	return sim.EstimatedView(c, j.spec, j.prog, j.fit, j.est, 80, 0.95)
}

func probeSpeedfitAndView(p *probeSet, rng *rand.Rand, shape probeShape) {
	g := newJobGen(rng.Int63())
	spec := g.next()
	j := newFittedJob(rng, spec, 48)
	speed := spec.Model.TrueSpeed(spec.Mode, 3, 5)
	p.us("speedfit.observe_us", timeEach(50, 50, func() { _ = j.est.Observe(3, 5, speed) }))
	p.us("speedfit.fit_us", timeEach(50, 1, func() {
		_ = j.est.Observe(3, 5, speed) // dirties the cached fit
		_, _ = j.est.Fit()
	}))
	c := cluster.Uniform(shape.nodes, nodeCapacity)
	p.us("sim.view_us", timeEach(30, 1, func() {
		j.observe(rng, 4, 6) // one round's observations, then the view a round builds
		_ = j.view(c)
	}))
}

// probeCore times the allocator and placer cold on views of the workload's
// shape, the shrink-by-one retry loop on a request that does not fit, and a
// second interval of an incremental session after progress-only changes.
func probeCore(p *probeSet, rng *rand.Rand, shape probeShape) {
	c := cluster.Uniform(shape.nodes, nodeCapacity)
	g := newJobGen(rng.Int63())
	jobs := make([]*fittedJob, shape.jobs)
	for i := range jobs {
		spec := g.next()
		spec.ID = i + 1
		jobs[i] = newFittedJob(rng, spec, 8)
	}
	// Views carry memoized speed closures and must be rebuilt per interval.
	views := func() []*core.JobInfo {
		out := make([]*core.JobInfo, len(jobs))
		for i, j := range jobs {
			out[i] = j.view(c)
		}
		return out
	}
	requests := func(infos []*core.JobInfo, alloc map[int]core.Allocation) []core.PlacementRequest {
		var reqs []core.PlacementRequest
		for _, in := range infos {
			if a := alloc[in.ID]; a.PS > 0 && a.Workers > 0 {
				reqs = append(reqs, core.PlacementRequest{JobID: in.ID, Alloc: a, WorkerRes: in.WorkerRes, PSRes: in.PSRes})
			}
		}
		return reqs
	}

	var allocMs, placeMs []float64
	for i := 0; i < 5; i++ {
		infos := views()
		t0 := time.Now()
		alloc := core.Allocate(infos, c.Capacity())
		allocMs = append(allocMs, ms(time.Since(t0)))
		reqs := requests(infos, alloc)
		c.ResetAll()
		t0 = time.Now()
		core.Place(reqs, c)
		placeMs = append(placeMs, ms(time.Since(t0)))
	}
	p.add("core.allocate_ms", median(allocMs), "ms", len(allocMs))
	p.add("core.place_ms", median(placeMs), "ms", len(placeMs))

	// One request eight PS/worker pairs larger than the empty cluster can
	// host, shrunk by one task per retry exactly as the drivers do.
	m := jobs[0].spec.Model
	pair := m.WorkerRes.Add(m.PSRes)
	perNode := int(nodeCapacity[cluster.CPU] / pair[cluster.CPU])
	if byMem := int(nodeCapacity[cluster.Memory] / pair[cluster.Memory]); byMem < perNode {
		perNode = byMem
	}
	var infeasibleMs []float64
	retries := 0
	for i := 0; i < 3; i++ {
		c.ResetAll()
		a := core.Allocation{PS: perNode*shape.nodes + 8, Workers: perNode*shape.nodes + 8}
		t0 := time.Now()
		for retries = 0; retries < 64; retries++ {
			_, unplaced := core.Place([]core.PlacementRequest{{JobID: 1, Alloc: a, WorkerRes: m.WorkerRes, PSRes: m.PSRes}}, c)
			if len(unplaced) == 0 {
				break
			}
			if a.Workers >= a.PS {
				a.Workers--
			} else {
				a.PS--
			}
		}
		infeasibleMs = append(infeasibleMs, ms(time.Since(t0)))
	}
	p.add("core.place_infeasible_ms", median(infeasibleMs), "ms", len(infeasibleMs))
	p.add("core.place_infeasible_retries", float64(retries), "count", 0)

	inc := core.NewIncremental()
	c.ResetAll()
	interval := func() time.Duration {
		infos := views()
		t0 := time.Now()
		alloc := inc.Alloc.Allocate(infos, c.Capacity())
		inc.Place.Place(requests(infos, alloc), c)
		return time.Since(t0)
	}
	interval()
	var incrUs []float64
	for i := 0; i < 5; i++ {
		for _, j := range jobs {
			j.prog += 0.01 // progress only: no new estimator observations
		}
		incrUs = append(incrUs, us(interval()))
	}
	p.us("core.incr_interval_us", incrUs)
}

func probeCluster(p *probeSet, shape probeShape) {
	c := cluster.Uniform(shape.nodes, nodeCapacity)
	p.us("cluster.capacity_us", timeEach(30, 20, func() { _ = c.Capacity() }))
	p.us("cluster.reset_us", timeEach(30, 20, c.ResetAll))
}

// probeSimRun replays a small fixed-shape trace end to end: the simulator
// driver's own cost around the kernels.
func probeSimRun(p *probeSet, e *env) error {
	jobs := replayTrace(e.seed+3, 90, replayHorizon/10)
	var runMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := sim.Run(replayConfig(jobs, 4, e.seed)); err != nil {
			return fmt.Errorf("sim.run probe: %w", err)
		}
		runMs = append(runMs, ms(time.Since(t0)))
	}
	p.add("sim.run_small_ms", median(runMs), "ms", len(runMs))
	return nil
}

// probeWAL appends, group-commits from one and from all cores, and scans.
func probeWAL(p *probeSet, e *env) error {
	dir, err := os.MkdirTemp(e.tmp, "walprobe-")
	if err != nil {
		return err
	}
	log, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncGroup})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("x"), 96) // about one observe record
	var failed firstError
	p.us("wal.append_us", timeEach(40, 50, func() {
		_, err := log.Append(wal.TypeObserve, payload)
		failed.note(err)
	}))
	appendSync := func() {
		_, err := log.AppendSync(wal.TypeSubmit, payload)
		failed.note(err)
	}
	p.us("wal.appendsync_us_c1", timeEach(200, 1, appendSync))

	before := log.Stats()
	nc := clients()
	per := make([][]float64, nc)
	var wg sync.WaitGroup
	for i := 0; i < nc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = timeEach(200, 1, appendSync)
		}(i)
	}
	wg.Wait()
	after := log.Stats()
	var all []float64
	for _, s := range per {
		all = append(all, s...)
	}
	p.us("wal.appendsync_us_cN", all)
	p.add("wal.appends_per_fsync", ratio(after.Appends-before.Appends, after.Fsyncs-before.Fsyncs), "ratio", int(after.Appends-before.Appends))
	if err := log.Close(); err != nil {
		return err
	}
	if failed.err != nil {
		return fmt.Errorf("wal probe: %w", failed.err)
	}
	t0 := time.Now()
	res, err := wal.Scan(dir, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	p.add("wal.scan_records_per_s", float64(res.Records)/time.Since(t0).Seconds(), "1/s", res.Records)
	return nil
}

// firstError keeps the first failure of a timed loop, whose body cannot
// return one; safe for the concurrent probes.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) note(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// probeServe times the daemon's request paths in process and over one
// loopback connection; the difference is what the HTTP layer costs.
func probeServe(p *probeSet, e *env) error {
	pe := *e
	pe.rec = nil
	s, err := startServer(&pe, wal.FsyncGroup)
	if err != nil {
		return err
	}
	defer s.stop()
	g := newJobGen(e.seed + 11)
	body, err := json.Marshal(g.submitRequest())
	if err != nil {
		return err
	}
	p.us("serve.decode_us", timeEach(50, 20, func() { _, _ = serve.DecodeSubmit(body) }))

	walBefore, _ := s.d.WALStats()
	var ids []int
	var failed firstError
	submitUs := timeEach(200, 1, func() {
		id, err := s.d.Submit(g.submitRequest())
		failed.note(err)
		ids = append(ids, id)
	})
	walAfter, _ := s.d.WALStats()
	if failed.err != nil {
		return fmt.Errorf("serve probe: %w", failed.err)
	}
	p.us("serve.submit_us", submitUs)
	// Engine rounds may append between the two readings; at a 100 ms tick
	// and ~0.1 s of submits that is at most a round or two of small records.
	p.add("wal.bytes_per_submit", float64(walAfter.Bytes-walBefore.Bytes)/float64(len(ids)), "B", len(ids))
	next := 0
	nextID := func() int {
		next++
		return ids[next%len(ids)]
	}
	statusUs := timeEach(50, 100, func() { _, _ = s.d.Status(nextID()) })
	p.us("serve.status_us", statusUs)

	hc := newClient(s, 0, nil)
	defer hc.close()
	roundTrip := func(method, url string, body []byte, want int) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			failed.note(err)
			return
		}
		resp, err := hc.hc.Do(req)
		if err != nil {
			failed.note(err)
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
		}
		failed.note(err)
	}
	get := func() { roundTrip(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", s.base, nextID()), nil, http.StatusOK) }
	get() // dial outside the samples
	httpStatus := timeEach(300, 1, get)
	httpSubmit := timeEach(200, 1, func() { roundTrip(http.MethodPost, s.base+"/v1/jobs", body, http.StatusCreated) })
	p.us("serve.http_status_us", httpStatus)
	p.us("serve.http_submit_us", httpSubmit)
	p.add("serve.http_overhead_status_us", median(httpStatus)-median(statusUs), "us", len(httpStatus))
	p.add("serve.http_overhead_submit_us", median(httpSubmit)-median(submitUs), "us", len(httpSubmit))

	// Cancel last: each of the probe's own jobs once, none of them old enough
	// to have converged.
	next = 0
	p.us("serve.cancel_us", timeEach(len(ids), 1, func() {
		failed.note(s.d.Cancel(ids[next]))
		next++
	}))
	if failed.err != nil {
		return fmt.Errorf("serve probe: %w", failed.err)
	}
	return nil
}

// probeRecovery runs a small fixed-shape daemon for a few rounds, then
// times the three ways its state comes back: snapshot write, snapshot
// restore, and the same checked WAL replay rounds-dense ends with.
func probeRecovery(p *probeSet, e *env) error {
	const rounds = 20
	jobs, nodes := e.sized(120, 4), e.sized(30, 2)
	pe := *e
	pe.rec = nil
	var traces int64
	b, _, err := liveBed(&pe, jobs, nodes, wal.FsyncGroup, &traces)
	if err != nil {
		return err
	}
	defer b.close()
	before, _ := b.d.WALStats()
	checks := newOutcome()
	if _, err := driveRounds(&pe, b, checks, jobs, rounds, pe.deadline(time.Now()), &traces); err != nil {
		return err
	}
	after, _ := b.d.WALStats()
	p.add("wal.bytes_per_round", float64(after.Bytes-before.Bytes)/rounds, "B", rounds)

	var snap bytes.Buffer
	var snapMs, restoreMs []float64
	for i := 0; i < 3; i++ {
		snap.Reset()
		t0 := time.Now()
		if err := b.d.WriteSnapshot(&snap); err != nil {
			return err
		}
		snapMs = append(snapMs, ms(time.Since(t0)))
	}
	for i := 0; i < 3; i++ {
		d, err := serve.New(serve.Config{Cluster: cluster.Uniform(nodes, nodeCapacity), Seed: e.seed})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := d.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			return err
		}
		restoreMs = append(restoreMs, ms(time.Since(t0)))
	}
	p.add("serve.snapshot_ms", median(snapMs), "ms", len(snapMs))
	p.add("serve.restore_ms", median(restoreMs), "ms", len(restoreMs))

	rc, err := recoverFrom(&pe, b, nodes, checks, 0)
	if err != nil {
		return err
	}
	if len(checks.problems) > 0 {
		return fmt.Errorf("recovery probe: %s", checks.problems[0])
	}
	p.add("serve.replay_records_per_s", float64(rc.records)/rc.seconds, "1/s", rc.records)
	return nil
}
