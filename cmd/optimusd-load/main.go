// Command optimusd-load is an open-loop (YCSB-style) load generator for
// optimusd: a dispatcher fires operations at their scheduled arrival times
// regardless of how fast the daemon answers — the open-loop model that
// exposes queueing collapse which closed-loop clients hide. Latency is
// measured from each operation's *intended* start (coordinated-omission
// safe: a stalled daemon is charged for the stall, not forgiven for it).
// Operations are drawn from a pluggable mix over submit / status / delete /
// SSE-connect; status and delete target existing jobs through a YCSB key
// distribution (zipfian, latest, uniform):
//
//	optimusd-load -url http://localhost:8080 -duration 10s -rate 500 \
//	    -mix submit=5,status=90,delete=3,sse=2 -dist zipfian -clients 256
//
// The run reports per-op p50/p99/p999, attempted vs completed throughput and
// the daemon's interval-overrun rate (scraped from /v1/cluster before and
// after). It exits non-zero when the error rate exceeds -max-error-rate or
// the overall p99 exceeds -max-p99, making it a CI SLO gate.
//
// Failover scenario (-urls): a comma-separated target list turns the
// open-loop run into an HA probe — every transport failure or 5xx rotates to
// the next target (a follower answers reads immediately and writes once
// promoted), each such failure counts as a lost request, and the report adds
// the blackout window: the longest stretch from a failure to the next
// success anywhere in the pool. scripts/smoke_failover.sh drives this while
// kill -9ing the leader mid-run:
//
//	optimusd-load -urls http://localhost:8080,http://localhost:8081 \
//	    -duration 10s -rate 300 -mix submit=80,status=20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/obs"
	"optimus/internal/workload"
)

var lg = obs.NewLogger(os.Stderr, "optimusd-load", nil)

func main() {
	var (
		url     = flag.String("url", "http://localhost:8080", "optimusd base URL")
		urls    = flag.String("urls", "", "comma-separated failover targets (overrides -url)")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request timeout")

		duration = flag.Duration("duration", 10*time.Second, "run length")
		rate     = flag.Float64("rate", 500, "mean arrival rate, ops/sec")
		arrivals = flag.String("arrivals", "poisson", "arrival process: poisson or uniform")
		mix      = flag.String("mix", "submit=5,status=90,delete=3,sse=2", "operation mix as kind=weight pairs")
		dist     = flag.String("dist", "zipfian", "key distribution for status/delete: zipfian, latest or uniform")
		theta    = flag.Float64("theta", 0, "zipfian skew constant (default 0.99)")
		clients  = flag.Int("clients", 256, "worker pool size")
		seed     = flag.Int64("seed", 1, "rng seed for mix and key choices")

		maxErrRate = flag.Float64("max-error-rate", 0, "exit non-zero when errors/ops exceeds this fraction")
		maxP99     = flag.Duration("max-p99", 0, "exit non-zero when overall p99 exceeds this (0 disables)")
	)
	flag.Parse()
	cfg := loadConfig{
		tg: newTargets(*urls, *url), duration: *duration, rate: *rate,
		arrivals: *arrivals,
		mix:      *mix, dist: *dist, theta: *theta, clients: *clients,
		seed: *seed, timeout: *timeout,
		maxErrRate: *maxErrRate, maxP99: *maxP99,
	}
	if err := runOpenLoop(cfg); err != nil {
		lg.Fatalf("%v", err)
	}
}

// targets is the (possibly single-element) pool of optimusd base URLs. Every
// transport failure or 5xx rotates the pool to the next target and counts a
// lost request; the blackout window is the longest failure→success gap, i.e.
// how long the cluster as a whole refused the workload. All methods are
// worker-concurrency safe.
type targets struct {
	urls       []string
	cur        atomic.Int32
	lost       atomic.Int64
	switches   atomic.Int64
	firstFail  atomic.Int64 // unix-nanos of the oldest unrecovered failure, 0 = healthy
	blackoutNs atomic.Int64 // longest observed blackout
}

func newTargets(csv, single string) *targets {
	t := &targets{}
	if csv != "" {
		for _, u := range strings.Split(csv, ",") {
			if u = strings.TrimSpace(u); u != "" {
				t.urls = append(t.urls, strings.TrimRight(u, "/"))
			}
		}
	}
	if len(t.urls) == 0 {
		t.urls = []string{single}
	}
	return t
}

func (t *targets) url() string { return t.urls[t.cur.Load()] }

// ok records a successful operation, closing any open blackout window.
func (t *targets) ok() {
	if f := t.firstFail.Swap(0); f != 0 {
		w := time.Now().UnixNano() - f
		for {
			cur := t.blackoutNs.Load()
			if w <= cur || t.blackoutNs.CompareAndSwap(cur, w) {
				return
			}
		}
	}
}

// fail records a lost request, opens the blackout window if the pool looked
// healthy, and rotates to the next target.
func (t *targets) fail() {
	t.lost.Add(1)
	t.firstFail.CompareAndSwap(0, time.Now().UnixNano())
	if len(t.urls) > 1 {
		cur := t.cur.Load()
		if t.cur.CompareAndSwap(cur, (cur+1)%int32(len(t.urls))) {
			t.switches.Add(1)
		}
	}
}

func (t *targets) blackout() time.Duration {
	w := t.blackoutNs.Load()
	// A window still open at read time (run ended mid-blackout) counts too.
	if f := t.firstFail.Load(); f != 0 {
		if open := time.Now().UnixNano() - f; open > w {
			w = open
		}
	}
	return time.Duration(w)
}

type loadConfig struct {
	tg         *targets
	duration   time.Duration
	rate       float64
	arrivals   string
	mix        string
	dist       string
	theta      float64
	clients    int
	seed       int64
	timeout    time.Duration
	maxErrRate float64
	maxP99     time.Duration
}

type opKind int

const (
	opSubmit opKind = iota
	opStatus
	opDelete
	opSSE
	numOps
)

var opNames = [numOps]string{"submit", "status", "delete", "sse"}

// parseMix parses "submit=5,status=90,delete=3,sse=2" into weights.
func parseMix(s string) ([numOps]float64, error) {
	var w [numOps]float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return w, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || v < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for k := opKind(0); k < numOps; k++ {
			if opNames[k] == kv[0] {
				w[k] = v
				found = true
				break
			}
		}
		if !found {
			return w, fmt.Errorf("unknown op %q (have submit, status, delete, sse)", kv[0])
		}
	}
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total == 0 {
		return w, fmt.Errorf("mix %q has zero total weight", s)
	}
	return w, nil
}

// idStore publishes created job IDs for lock-free keyed reads: the backing
// array is preallocated (appends never move it), writes append under a
// mutex then advance the atomic count, readers load the count and index
// below it — the atomic store/load pair orders the element write before the
// read.
type idStore struct {
	mu  sync.Mutex
	ids []int64
	n   atomic.Int64
}

func newIDStore(capacity int) *idStore {
	return &idStore{ids: make([]int64, 0, capacity)}
}

func (s *idStore) add(id int64) {
	s.mu.Lock()
	if len(s.ids) < cap(s.ids) {
		s.ids = append(s.ids, id)
		s.n.Store(int64(len(s.ids)))
	}
	s.mu.Unlock()
}

func (s *idStore) size() int { return int(s.n.Load()) }

func (s *idStore) at(k int) int64 { return s.ids[k] }

// op is one scheduled operation.
type op struct {
	kind     opKind
	intended time.Time
}

type counters struct {
	ok        [numOps]atomic.Int64
	errs      [numOps]atomic.Int64
	throttled atomic.Int64 // 429 on submit: backpressure, not failure
	conflicts atomic.Int64 // 409 on delete: already terminal, not failure
}

type clusterProbe struct {
	Rounds           int64 `json:"rounds"`
	IntervalOverruns int64 `json:"intervalOverruns"`
}

func probeCluster(client *http.Client, url string) (clusterProbe, error) {
	var p clusterProbe
	resp, err := client.Get(url + "/v1/cluster")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return p, fmt.Errorf("GET /v1/cluster: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&p)
	return p, err
}

func runOpenLoop(cfg loadConfig) error {
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return err
	}
	var arrive workload.ArrivalProcess
	switch cfg.arrivals {
	case "poisson":
		arrive = workload.PoissonArrivals
	case "uniform":
		arrive = workload.UniformArrivals
	default:
		return fmt.Errorf("unknown arrival process %q (have poisson, uniform)", cfg.arrivals)
	}
	if _, err := workload.NewKeyDist(cfg.dist, cfg.theta); err != nil {
		return err
	}
	if cfg.clients < 1 {
		cfg.clients = 1
	}

	horizon := cfg.duration.Seconds()
	total := int(cfg.rate * horizon)
	if total < 1 {
		return fmt.Errorf("rate %g over %s yields no operations", cfg.rate, cfg.duration)
	}

	master := rand.New(rand.NewSource(cfg.seed))
	times := arrive(master, total, horizon)
	kinds := make([]opKind, total)
	cum := weights
	for k := opKind(1); k < numOps; k++ {
		cum[k] += cum[k-1]
	}
	for i := range kinds {
		u := master.Float64() * cum[numOps-1]
		for k := opKind(0); k < numOps; k++ {
			if u < cum[k] {
				kinds[i] = k
				break
			}
		}
	}

	client := &http.Client{
		Timeout:   cfg.timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients},
	}
	// SSE connections outlive cfg.timeout by design; they get a per-request
	// context deadline instead of a client-wide one.
	sseClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	// Seed the keyspace so keyed ops always have a target, even under a
	// status-only mix.
	store := newIDStore(total + 1)
	if id, outcome, _ := doSubmit(client, cfg.tg.url(), master); outcome == outcomeOK {
		store.add(id)
	} else {
		return fmt.Errorf("seeding submit failed against %s", cfg.tg.url())
	}

	before, err := probeCluster(client, cfg.tg.url())
	if err != nil {
		return fmt.Errorf("pre-run cluster probe: %w", err)
	}

	var (
		hists   [numOps]obs.AtomicHistogram
		overall obs.AtomicHistogram
		cnt     counters
	)
	// The queue holds every operation: the dispatcher never blocks on slow
	// workers, which is what makes the loop open rather than closed.
	queue := make(chan op, total)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w) + 1))
			kd, _ := workload.NewKeyDist(cfg.dist, cfg.theta)
			for o := range queue {
				runOp(o, cfg, client, sseClient, rng, kd, store, &hists[o.kind], &overall, &cnt)
			}
		}(w)
	}

	start := time.Now()
	for i := 0; i < total; i++ {
		intended := start.Add(time.Duration(times[i] * float64(time.Second)))
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		queue <- op{kind: kinds[i], intended: intended}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)

	// Probe whichever target the pool ended on — after a failover that is
	// the promoted follower, not the corpse.
	after, err := probeCluster(client, cfg.tg.url())
	if err != nil {
		return fmt.Errorf("post-run cluster probe: %w", err)
	}

	return report(cfg, weights, elapsed, total, &hists, &overall, &cnt, before, after)
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeErr
	outcomeThrottled
	outcomeConflict
)

var loadModels = []string{"resnext-110", "resnet-50", "seq2seq"}

// doSubmit posts one submission. The third result reports the target looking
// down — transport failure or 5xx (a follower answers writes with 503 until
// promoted) — which is what rotates a failover pool.
func doSubmit(client *http.Client, url string, rng *rand.Rand) (int64, outcome, bool) {
	body := fmt.Sprintf(
		`{"model":%q,"mode":"async","threshold":0.05,"downscale":0.2}`,
		loadModels[rng.Intn(len(loadModels))])
	resp, err := client.Post(url+"/v1/jobs", "application/json",
		strings.NewReader(body))
	if err != nil {
		return 0, outcomeErr, true
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var created struct {
			ID int64 `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&created) != nil || created.ID == 0 {
			return 0, outcomeErr, false
		}
		io.Copy(io.Discard, resp.Body)
		return created.ID, outcomeOK, false
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return 0, outcomeThrottled, false
	default:
		io.Copy(io.Discard, resp.Body)
		return 0, outcomeErr, resp.StatusCode >= 500
	}
}

func runOp(o op, cfg loadConfig, client, sseClient *http.Client,
	rng *rand.Rand, kd workload.KeyDist, store *idStore,
	h, overall *obs.AtomicHistogram, cnt *counters) {
	res := outcomeErr
	url := cfg.tg.url()
	srvDown := false
	switch o.kind {
	case opSubmit:
		var id int64
		if id, res, srvDown = doSubmit(client, url, rng); res == outcomeOK {
			store.add(id)
		}
	case opStatus:
		id := store.at(kd.Draw(rng, store.size()))
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d", url, id))
		if err != nil {
			srvDown = true
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				res = outcomeOK
			}
			srvDown = resp.StatusCode >= 500
		}
	case opDelete:
		id := store.at(kd.Draw(rng, store.size()))
		req, _ := http.NewRequest(http.MethodDelete,
			fmt.Sprintf("%s/v1/jobs/%d", url, id), nil)
		resp, err := client.Do(req)
		if err != nil {
			srvDown = true
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				res = outcomeOK
			case http.StatusConflict: // already done/cancelled: expected
				res = outcomeConflict
			}
			srvDown = resp.StatusCode >= 500
		}
	case opSSE:
		// Connect, read the first bytes of the stream (replay or comment),
		// disconnect: measures subscriber-attach latency under churn.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
			url+"/v1/events?since=0", nil)
		resp, err := sseClient.Do(req)
		if err != nil {
			srvDown = true
		} else {
			buf := make([]byte, 512)
			if _, rerr := resp.Body.Read(buf); rerr == nil || rerr == io.EOF {
				res = outcomeOK
			}
			resp.Body.Close()
		}
		cancel()
	}
	if srvDown {
		cfg.tg.fail()
	} else {
		cfg.tg.ok()
	}
	// Coordinated-omission-safe: latency runs from the intended start, so
	// queue wait behind a stalled daemon is charged to the daemon.
	lat := time.Since(o.intended).Seconds()
	h.Observe(lat)
	overall.Observe(lat)
	switch res {
	case outcomeOK:
		cnt.ok[o.kind].Add(1)
	case outcomeThrottled:
		cnt.throttled.Add(1)
		cnt.ok[o.kind].Add(1) // backpressure is correct behavior, not an error
	case outcomeConflict:
		cnt.conflicts.Add(1)
		cnt.ok[o.kind].Add(1)
	default:
		cnt.errs[o.kind].Add(1)
	}
}

func report(cfg loadConfig, weights [numOps]float64, elapsed time.Duration,
	total int, hists *[numOps]obs.AtomicHistogram, overall *obs.AtomicHistogram,
	cnt *counters, before, after clusterProbe) error {

	var okTotal, errTotal int64
	for k := opKind(0); k < numOps; k++ {
		okTotal += cnt.ok[k].Load()
		errTotal += cnt.errs[k].Load()
	}
	fmt.Printf("open-loop: rate=%g/s duration=%s clients=%d mix=%s dist=%s arrivals=%s\n",
		cfg.rate, cfg.duration, cfg.clients, cfg.mix, cfg.dist, cfg.arrivals)
	fmt.Printf("ops: %d attempted, %d ok, %d errors, %d throttled, %d conflicts in %s (%.0f/s completed)\n",
		total, okTotal, errTotal, cnt.throttled.Load(), cnt.conflicts.Load(),
		elapsed.Round(time.Millisecond), float64(okTotal+errTotal)/elapsed.Seconds())

	fmt.Println("latency from intended start (coordinated-omission safe):")
	for k := opKind(0); k < numOps; k++ {
		if weights[k] == 0 {
			continue
		}
		s := hists[k].Snapshot()
		if s.Count() == 0 {
			continue
		}
		fmt.Printf("  %-6s n=%-7d p50=%-9s p99=%-9s p999=%-9s max=%s\n",
			opNames[k], s.Count(),
			fmtSec(s.Quantile(0.50)), fmtSec(s.Quantile(0.99)),
			fmtSec(s.Quantile(0.999)), fmtSec(s.Max()))
	}
	all := overall.Snapshot()
	fmt.Printf("  %-6s n=%-7d p50=%-9s p99=%-9s p999=%-9s max=%s\n",
		"all", all.Count(),
		fmtSec(all.Quantile(0.50)), fmtSec(all.Quantile(0.99)),
		fmtSec(all.Quantile(0.999)), fmtSec(all.Max()))

	dRounds := after.Rounds - before.Rounds
	dOver := after.IntervalOverruns - before.IntervalOverruns
	overrunRate := 0.0
	if dRounds > 0 {
		overrunRate = float64(dOver) / float64(dRounds)
	}
	fmt.Printf("intervals: %d rounds, %d overruns (rate %.3f)\n", dRounds, dOver, overrunRate)

	if len(cfg.tg.urls) > 1 {
		fmt.Printf("failover: %d targets, %d switches, %d lost requests, blackout window %s, ended on %s\n",
			len(cfg.tg.urls), cfg.tg.switches.Load(), cfg.tg.lost.Load(),
			cfg.tg.blackout().Round(time.Millisecond), cfg.tg.url())
	}

	if r := errRate(errTotal, okTotal); r > cfg.maxErrRate {
		fmt.Printf("FAIL: error rate %.4f exceeds -max-error-rate %.4f\n", r, cfg.maxErrRate)
		os.Exit(1)
	}
	if cfg.maxP99 > 0 && time.Duration(all.Quantile(0.99)*float64(time.Second)) > cfg.maxP99 {
		fmt.Printf("FAIL: overall p99 %s exceeds -max-p99 %s\n",
			fmtSec(all.Quantile(0.99)), cfg.maxP99)
		os.Exit(1)
	}
	return nil
}

func errRate(errs, ok int64) float64 {
	if errs+ok == 0 {
		return 0
	}
	return float64(errs) / float64(errs+ok)
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
