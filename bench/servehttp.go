package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"optimus/internal/core"
	"optimus/internal/serve"
	"optimus/internal/wal"
)

// The serve-* workloads put real HTTP traffic on a live daemon: d.Handler()
// behind a loopback listener, the engine's Run loop ticking every 100 ms, a
// WAL on disk underneath. One closed-loop client per core, because the
// daemon's callers (the CLI, dashboards) wait for each reply; a due-time
// open loop on this box mostly measures Go timer lateness (0.6 ms p50
// against 36 µs of status service time), so the paced phase reports itself
// as a loadgen.* diagnostic and never as an end-to-end number.
const (
	serveNodes = 32
	serveJobs  = 200
	serveTick  = 100 * time.Millisecond
	warmupOps  = 500 // per client, closed loop, part of set-up
	// rampShare is the untimed closed loop before the measured one, as a
	// share of it (3 s): after set-up, throughput still climbs by up to a
	// quarter over the first three to four seconds of traffic.
	rampShare = 0.15
	// windowLen, in seconds, is the stretch of closed loop one reading of the
	// figures covers. serve-write's heap grows by 25 MB/s (the registry keeps
	// every terminal job), and late in a run the collector marks for 0.9 s
	// out of every 1.6: a window this long always holds part of a mark phase,
	// where half a second read 15 k and 38 k ops/s in alternate windows.
	windowLen   = 1.0
	pacedShare  = 0.3 // paced phase length as a share of the closed loop's
	sampleEvery = 20 * time.Millisecond
)

// traffic is one serve-* workload's mix.
type traffic struct {
	mix mix
	// primary is the operation class op_ms_* reports: the one the mix is
	// about. The other classes are printed beside it.
	primary opKind
	// pacedRate is the open-loop phase's total rate, ops/s: well under the
	// closed-loop throughput, so lateness there is the generator's.
	pacedRate float64
}

var (
	// Lock-free snapshot read, encode, net/http; WAL and engine nearly idle.
	readMix = traffic{mix: mix{opStatus: 90, opSubmit: 5, opDelete: 5}, primary: opStatus, pacedRate: 4000}
	// Decode, admission, registry insert, wal.AppendSync, fsync wait. Submit
	// equals delete so the live set stays about constant.
	writeMix = traffic{mix: mix{opStatus: 10, opSubmit: 45, opDelete: 45}, primary: opSubmit, pacedRate: 1000}
)

// liveSet is the job IDs the clients may address, shared by all of them.
type liveSet struct {
	mu  sync.Mutex
	ids []int
}

func (l *liveSet) add(id int) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

// pick returns the ID a key addresses; take also removes it, so no two
// clients ever delete the same job.
func (l *liveSet) pick(key int, take bool) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ids) == 0 {
		return 0, false
	}
	i := key % len(l.ids)
	id := l.ids[i]
	if take {
		last := len(l.ids) - 1
		l.ids[i] = l.ids[last]
		l.ids = l.ids[:last]
	}
	return id, true
}

// server is a bed serving HTTP with its engine loop running.
type server struct {
	*bed
	base   string
	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	live   *liveSet
}

func startServer(e *env, fsync wal.FsyncPolicy) (*server, error) {
	b, err := newBed(e, e.sized(serveNodes, 2), fsync, func(c *serve.Config) { c.Tick = serveTick })
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{bed: b, base: "http://" + ln.Addr().String(), cancel: cancel,
		srv: &http.Server{Handler: b.d.Handler()}, live: &liveSet{}}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		b.d.Run(ctx)
	}()
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	for i := 0; i < e.sized(serveJobs, 8); i++ {
		id, err := b.submit()
		if err != nil {
			s.stop()
			return nil, err
		}
		s.live.add(id)
	}
	return s, nil
}

// stop shuts the listener and the engine loop down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.cancel()
	s.wg.Wait()
	return errors.Join(err, s.bed.close())
}

// client is one load-generator connection.
type client struct {
	idx int
	hc  *http.Client
	s   *server
	rec *recorder
	seq int64
	// spare supplies a submission when a status or delete finds no live job.
	spare *jobGen
	lat   [numOpKinds][]float64 // ms, send (or due time) to body read
	// at is when each lat sample completed, in seconds since phase; the
	// closed loop's windows are cut by it.
	at    [numOpKinds][]float32
	phase time.Time
	ids   []int // IDs of this client's 2xx submissions
	sent  int
	errs  []string
}

func newClient(s *server, idx int, rec *recorder) *client {
	// One connection per client: the transport keeps a single idle conn.
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{idx: idx, s: s, rec: rec, spare: newJobGen(int64(idx) + 99),
		hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) failf(format string, args ...any) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one operation and records its latency from `from` (the send
// time in a closed loop, the due time in a paced one).
func (c *client) do(o op, from time.Time) {
	c.sent++
	var (
		req *http.Request
		err error
	)
	kind := o.Kind
	if kind != opSubmit {
		id, ok := c.s.live.pick(o.Key, kind == opDelete)
		if !ok { // nothing to address yet: submit instead
			kind = opSubmit
			o.Body = c.spare.submitRequest()
		} else {
			method := http.MethodGet
			if kind == opDelete {
				method = http.MethodDelete
			}
			req, err = http.NewRequest(method, c.s.base+"/v1/jobs/"+strconv.Itoa(id), nil)
		}
	}
	if kind == opSubmit {
		var body []byte
		body, err = json.Marshal(o.Body)
		if err == nil {
			req, err = http.NewRequest(http.MethodPost, c.s.base+"/v1/jobs", bytes.NewReader(body))
		}
	}
	if err != nil {
		c.failf("%s: building request: %v", kind, err)
		return
	}
	c.seq++
	sp := c.rec.begin(0, int64(c.idx+1)<<40|c.seq, "serve", "http."+kind.String())
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rec.end(sp)
		c.failf("%s: %v", kind, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.end(sp)
	if err != nil {
		c.failf("%s: reading body: %v", kind, err)
		return
	}
	elapsed := ms(time.Since(from))
	switch {
	case kind == opSubmit && resp.StatusCode == http.StatusCreated:
		var st struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.ID <= 0 {
			c.failf("submit: unreadable reply %q", body)
			return
		}
		c.ids = append(c.ids, st.ID)
		c.s.live.add(st.ID)
	case kind != opSubmit && resp.StatusCode == http.StatusOK:
	case kind == opDelete && resp.StatusCode == http.StatusConflict:
		// The job converged between the pick and the delete: a legal race.
	default:
		c.failf("%s: status %d: %s", kind, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	c.lat[kind] = append(c.lat[kind], elapsed)
	c.at[kind] = append(c.at[kind], float32(time.Since(c.phase).Seconds()))
}

// closedLoop sends stream ops back to back until stop returns true.
func (c *client) closedLoop(stream *opStream, stop func(sent int) bool) {
	for n := 0; !stop(n); n++ {
		c.do(stream.next(), time.Now())
	}
}

// pacedStats is the open-loop phase's report.
type pacedStats struct {
	latMs, lateMs []float64
	backlogMax    int
}

// pacedLoop sends a pre-drawn Poisson schedule, each op at its due time or
// as soon after as the previous reply allows, timing from the due time.
func (c *client) pacedLoop(schedule []op, phaseStart time.Time, st *pacedStats) {
	for i, o := range schedule {
		due := phaseStart.Add(time.Duration(o.DueNs))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		st.lateMs = append(st.lateMs, ms(now.Sub(due)))
		// Ops already due but still waiting behind this one.
		j := i + 1
		for j < len(schedule) && phaseStart.Add(time.Duration(schedule[j].DueNs)).Before(now) {
			j++
		}
		if b := j - i - 1; b > st.backlogMax {
			st.backlogMax = b
		}
		before := c.latencyCount()
		c.do(o, due)
		if c.latencyCount() > before {
			st.latMs = append(st.latMs, ms(time.Since(due)))
		}
	}
}

func (c *client) latencyCount() int {
	n := 0
	for k := range c.lat {
		n += len(c.lat[k])
	}
	return n
}

// eachClient runs fn once per client, concurrently, and waits.
func eachClient(cs []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// shareSampler averages the published cluster share over the rounds the
// engine loop runs while traffic flows.
type shareSampler struct {
	stop   chan struct{}
	done   chan struct{}
	sum    float64
	rounds int
}

func sampleShare(d *serve.Daemon) *shareSampler {
	s := &shareSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		last := d.Cluster().Rounds
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if cs := d.Cluster(); cs.Rounds != last {
					last = cs.Rounds
					s.sum += cs.ClusterShare
					s.rounds++
				}
			}
		}
	}()
	return s
}

func (s *shareSampler) finish() (mean float64, rounds int) {
	close(s.stop)
	<-s.done
	if s.rounds == 0 {
		return 0, 0
	}
	return s.sum / float64(s.rounds), s.rounds
}

func runServe(e *env, tr traffic) (*outcome, error) {
	out := newOutcome()
	nc := clients()

	// Set-up: daemon, listener, engine loop, pre-submitted jobs, and a fixed
	// count of warm-up requests per client so connections, the HTTP stack
	// and the status caches are warm. The warm-up draws from its own seed:
	// the measured schedule does not depend on it.
	var s *server
	var cs []*client
	var setups []float64
	teardown := func() error {
		for _, c := range cs {
			c.close()
		}
		return s.stop()
	}
	for i := 0; i < e.setups; i++ {
		if s != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(e, workloadFsync); err != nil {
			return nil, err
		}
		cs = cs[:0]
		for k := 0; k < nc; k++ {
			cs = append(cs, newClient(s, k, nil))
		}
		eachClient(cs, func(c *client) {
			c.closedLoop(newOpStream(e.seed+7777, c.idx, tr.mix, 0), func(sent int) bool { return sent >= warmupOps })
		})
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer teardown()
	out.set("setup_s", median(setups), "s", len(setups))
	// The ramp is not part of set-up: its length is fixed, so it could not
	// show work moved into set-up. Measured samples start empty after it; the
	// submissions of warm-up and ramp stay in the uniqueness check.
	ramp := time.Now().Add(time.Duration(rampShare * e.seconds * float64(time.Second)))
	eachClient(cs, func(c *client) {
		c.closedLoop(newOpStream(e.seed+8888, c.idx, tr.mix, 0), func(int) bool { return !time.Now().Before(ramp) })
	})
	for _, c := range cs {
		if len(c.errs) > 0 {
			return nil, fmt.Errorf("%s warm-up: %s", e.workload, c.errs[0])
		}
		c.lat, c.at, c.sent, c.rec = [numOpKinds][]float64{}, [numOpKinds][]float32{}, 0, e.rec
	}

	var before core.IncrStats
	if sc := s.d.Cluster().Scheduler; sc != nil {
		before = *sc
	}
	roundsBefore := s.d.Rounds()
	root := e.rec.begin(0, 0, "serve", "Daemon.Run")
	sampler := sampleShare(s.d)
	rtBefore, start := readRuntime(), time.Now()
	end := start.Add(time.Duration(e.seconds * float64(time.Second)))
	eachClient(cs, func(c *client) {
		c.phase = start
		c.closedLoop(newOpStream(e.seed, c.idx, tr.mix, 0), func(int) bool { return !time.Now().Before(end) })
	})
	wall := time.Since(start)
	out.rt = readRuntime().since(rtBefore, wall)
	share, rounds := sampler.finish()
	e.rec.end(root)
	if sc := s.d.Cluster().Scheduler; sc != nil {
		out.incr = incrSince(before, *sc, s.d.Rounds()-roundsBefore)
	}

	var all [numOpKinds][]float64
	completed := 0
	for _, c := range cs {
		out.attempted += c.sent
		for k := range c.lat {
			all[k] = append(all[k], c.lat[k]...)
			completed += len(c.lat[k])
		}
		for _, msg := range c.errs {
			out.problemf("client %d: %s", c.idx, msg)
		}
		c.errs = nil
	}
	out.failed = out.attempted - completed
	if len(all[tr.primary]) == 0 || rounds == 0 {
		return nil, fmt.Errorf("%s: %d %s replies and %d engine rounds in %.1fs; nothing to report",
			e.workload, len(all[tr.primary]), tr.primary, rounds, wall.Seconds())
	}
	p50s, p90s, rates := windowed(cs, tr.primary, e.seconds)
	out.set("op_ms_p50", quietLow(p50s), "ms", len(all[tr.primary]))
	out.set("op_ms_p90", quietLow(p90s), "ms", len(all[tr.primary]))
	out.set("ops_per_s", quietHigh(rates), "1/s", completed)
	out.add("windows", float64(len(rates)), "count", 0)
	out.add("ops_per_s_whole_run", float64(completed)/wall.Seconds(), "1/s", completed)
	out.set("sched_quality", share, "ratio", rounds)
	for k := opKind(0); k < numOpKinds; k++ {
		if len(all[k]) == 0 {
			continue
		}
		sorted := sortedCopy(all[k])
		out.add(k.String()+"_ms_p50", percentile(sorted, 0.5), "ms", len(sorted))
		q := tailQuantile(len(sorted))
		out.add(fmt.Sprintf("%s_ms_p%g", k, q*100), percentile(sorted, q), "ms", len(sorted))
	}
	out.add("engine_rounds", float64(rounds), "count", 0)

	if e.paced {
		if err := runPaced(e, tr, cs, out); err != nil {
			return nil, err
		}
	}

	// Output checks: every acknowledged submission got its own ID and can be
	// read back, and the cluster the engine published is within capacity.
	seen := make(map[int]bool)
	for _, c := range cs {
		for _, id := range c.ids {
			if seen[id] {
				out.problemf("job id %d acknowledged twice", id)
			}
			seen[id] = true
			if _, err := s.d.Status(id); err != nil {
				out.problemf("acknowledged job %d is not readable: %v", id, err)
			}
		}
	}
	if err := checkCapacity(s.d.Cluster()); err != nil {
		out.problemf("%v", err)
	}
	if e.traced() {
		if err := s.foldDaemonTrace(e.rec, nil, root); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// windowed cuts the closed loop into windows of windowLen and returns each
// window's primary-operation p50 and p90 (ms) and its completed ops/s, all
// operation classes counted. The end-to-end numbers are read from the quiet
// end of the windows (quietLow, quietHigh): on a shared host whole seconds
// run slow now and then (another tenant, a burst of fsync latency), in one
// run for three quarters of it, and a whole-run figure averages them in.
func windowed(cs []*client, primary opKind, seconds float64) (p50s, p90s, rates []float64) {
	n := max(int(seconds/windowLen), 1)
	length := seconds / float64(n)
	counts := make([]int, n)
	lat := make([][]float64, n)
	for _, c := range cs {
		for k := range c.lat {
			for i, at := range c.at[k] {
				w := int(float64(at) / length)
				if w >= n {
					continue // replies that landed after the bell
				}
				counts[w]++
				if opKind(k) == primary {
					lat[w] = append(lat[w], c.lat[k][i])
				}
			}
		}
	}
	for w := range counts {
		if len(lat[w]) == 0 {
			continue
		}
		s := sortedCopy(lat[w])
		p50s = append(p50s, percentile(s, 0.5))
		p90s = append(p90s, percentile(s, 0.9))
		rates = append(rates, float64(counts[w])/length)
	}
	return p50s, p90s, rates
}

// runPaced is the open-loop phase after the closed loop: a seeded Poisson
// schedule over the same connections, latency from each op's due time, with
// the generator's own lateness and backlog beside it.
func runPaced(e *env, tr traffic, cs []*client, out *outcome) error {
	length := e.seconds * pacedShare
	perClient := tr.pacedRate / float64(len(cs))
	schedules := make([][]op, len(cs))
	for i := range cs {
		stream := newOpStream(e.seed+4242, i, tr.mix, perClient)
		for {
			o := stream.next()
			if float64(o.DueNs) > length*1e9 {
				break
			}
			schedules[i] = append(schedules[i], o)
		}
	}
	stats := make([]pacedStats, len(cs))
	phaseStart := time.Now()
	eachClient(cs, func(c *client) { c.pacedLoop(schedules[c.idx], phaseStart, &stats[c.idx]) })
	var lat, late []float64
	backlog := 0
	for i := range stats {
		lat = append(lat, stats[i].latMs...)
		late = append(late, stats[i].lateMs...)
		if stats[i].backlogMax > backlog {
			backlog = stats[i].backlogMax
		}
		for _, msg := range cs[i].errs {
			out.problemf("paced client %d: %s", i, msg)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("%s: paced phase completed no operation", e.workload)
	}
	sl, sa := sortedCopy(lat), sortedCopy(late)
	q := tailQuantile(len(sl))
	out.add(fmt.Sprintf("loadgen.paced_ms_p%g", q*100), percentile(sl, q), "ms", len(sl))
	out.add(fmt.Sprintf("loadgen.late_ms_p%g", q*100), percentile(sa, q), "ms", len(sa))
	out.add("loadgen.late_ms_p50", percentile(sa, 0.5), "ms", len(sa))
	out.add("loadgen.backlog_max", float64(backlog), "count", 0)
	out.add("loadgen.rate", tr.pacedRate, "1/s", 0)
	return nil
}
