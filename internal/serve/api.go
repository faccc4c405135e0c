package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
	"optimus/internal/obs"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// Admission / lookup errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrFull rejects a submission when MaxJobs live jobs already exist.
	ErrFull = errors.New("serve: registry full, try again later")
	// ErrNotFound names an unknown job ID.
	ErrNotFound = errors.New("serve: no such job")
	// ErrTerminal rejects operations on done/cancelled jobs.
	ErrTerminal = errors.New("serve: job already finished")
)

// maxBodyBytes bounds a submission request body.
const maxBodyBytes = 1 << 20

// SubmitRequest is the POST /v1/jobs body: the job owner picks a Table-1
// model, a training mode and a convergence threshold (§2.3 — the owner
// fixes what one task looks like, Optimus decides how many tasks).
type SubmitRequest struct {
	// Model is a workload zoo name, e.g. "resnext-110" (see workload.Zoo).
	Model string `json:"model"`
	// Mode is "async" or "sync".
	Mode string `json:"mode"`
	// Threshold is the convergence threshold on the normalized per-epoch
	// loss decrease, in (0, 0.5]. Defaults to 0.02.
	Threshold float64 `json:"threshold,omitempty"`
	// Downscale shrinks the dataset by this factor in (0, 1] (§6.1 uses it
	// so one run takes hours, not weeks). Defaults to 1.
	Downscale float64 `json:"downscale,omitempty"`
}

// DecodeSubmit parses and validates a submission body. It is strict: the
// body must be a single JSON object with no unknown fields. Exported (and
// fuzzed) because it is the daemon's untrusted-input boundary.
func DecodeSubmit(data []byte) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SubmitRequest{}, fmt.Errorf("serve: bad submit body: %w", err)
	}
	if dec.More() {
		return SubmitRequest{}, errors.New("serve: bad submit body: trailing data")
	}
	if _, err := req.spec(); err != nil {
		return SubmitRequest{}, err
	}
	return req, nil
}

// spec validates the request and converts it to a workload JobSpec (ID and
// Arrival are assigned at admission).
func (r SubmitRequest) spec() (workload.JobSpec, error) {
	model := workload.ZooByName(r.Model)
	if model == nil {
		return workload.JobSpec{}, fmt.Errorf("serve: unknown model %q", r.Model)
	}
	mode, err := speedfit.ParseMode(r.Mode)
	if err != nil {
		return workload.JobSpec{}, fmt.Errorf("serve: mode must be \"async\" or \"sync\", got %q", r.Mode)
	}
	th := r.Threshold
	if th == 0 {
		th = 0.02
	}
	if math.IsNaN(th) || th <= 0 || th > 0.5 {
		return workload.JobSpec{}, fmt.Errorf("serve: threshold must be in (0, 0.5], got %g", r.Threshold)
	}
	ds := r.Downscale
	if ds == 0 {
		ds = 1
	}
	if math.IsNaN(ds) || ds <= 0 || ds > 1 {
		return workload.JobSpec{}, fmt.Errorf("serve: downscale must be in (0, 1], got %g", r.Downscale)
	}
	return workload.JobSpec{
		Model: model, Mode: mode, Threshold: th, Downscale: ds,
	}, nil
}

// LossFitStatus is the job's fitted §3.1 convergence curve as reported by
// GET /v1/jobs/{id}.
type LossFitStatus struct {
	B0       float64 `json:"b0"`
	B1       float64 `json:"b1"`
	B2       float64 `json:"b2"`
	MaxLoss  float64 `json:"maxLoss"`
	Residual float64 `json:"residual"`
	Samples  int     `json:"samples"`
}

// JobStatus is the API's view of one job.
type JobStatus struct {
	ID        int       `json:"id"`
	State     JobState  `json:"state"`
	Model     string    `json:"model"`
	Mode      string    `json:"mode"`
	Threshold float64   `json:"threshold"`
	Downscale float64   `json:"downscale,omitempty"`
	Submitted time.Time `json:"submitted"`
	// ArrivalSim / DoneAtSim / JCT are on the simulated clock, seconds.
	ArrivalSim float64 `json:"arrivalSim"`
	DoneAtSim  float64 `json:"doneAtSim,omitempty"`
	JCT        float64 `json:"jctSeconds,omitempty"`
	// ProgressEpochs is true progress; the Est* fields are the scheduler's
	// online estimates (they converge to truth as observations accumulate).
	ProgressEpochs     float64         `json:"progressEpochs"`
	EstTotalEpochs     float64         `json:"estTotalEpochs"`
	EstRemainingEpochs float64         `json:"estRemainingEpochs"`
	LossFit            *LossFitStatus  `json:"lossFit,omitempty"`
	SpeedConfigs       int             `json:"speedConfigs"`
	Alloc              core.Allocation `json:"alloc"`
	Nodes              []string        `json:"nodes,omitempty"`
	Straggling         bool            `json:"straggling,omitempty"`
}

// statusSnap is one job's immutable read-mostly view: the rendered
// JobStatus plus a lazily cached JSON encoding, so the common GET
// /v1/jobs/{id} serves pre-encoded bytes without touching any lock. A new
// snap is swapped in whenever the job's state changes (every round by the
// engine, immediately by Cancel).
type statusSnap struct {
	st  JobStatus
	enc atomic.Pointer[[]byte]
}

func newStatusSnap(st JobStatus) *statusSnap { return &statusSnap{st: st} }

// bytes returns the snapshot's JSON encoding (trailing newline, matching
// json.Encoder), computing and caching it on first use. Concurrent first
// readers may both encode; either result is valid and one wins the cache.
func (s *statusSnap) bytes() []byte {
	if p := s.enc.Load(); p != nil {
		return *p
	}
	b, err := json.Marshal(s.st)
	if err != nil { // unreachable for JobStatus; keep the API total
		b = []byte(`{"error":"encode failure"}`)
	}
	b = append(b, '\n')
	s.enc.Store(&b)
	return b
}

// buildStatus renders one job from its live fields. Callers must either own
// the job exclusively (admission and restore, before the job is published)
// or hold both the engine mutex and the job's shard lock (the end-of-round
// republish).
func (d *Daemon) buildStatus(j *job) JobStatus {
	st := JobStatus{
		ID:             j.Spec.ID,
		State:          j.state,
		Model:          j.Spec.Model.Name,
		Mode:           j.Spec.Mode.String(),
		Threshold:      j.Spec.Threshold,
		Downscale:      j.Spec.Downscale,
		Submitted:      j.submittedWall,
		ArrivalSim:     j.Spec.Arrival,
		ProgressEpochs: j.Progress,
		SpeedConfigs:   j.SpeedEst.Configurations(),
		Alloc:          j.Alloc,
		Straggling:     j.Straggling,
	}
	if len(j.Nodes) > 0 {
		// Copy: j.Nodes may alias the placer's reusable arena, but the
		// snapshot must stay immutable forever.
		st.Nodes = append([]string(nil), j.Nodes...)
	}
	if j.Spec.Downscale == 1 {
		st.Downscale = 0 // omitempty: default downscale is noise
	}
	if j.state == StateDone {
		st.DoneAtSim = j.DoneAt
		st.JCT = j.DoneAt - j.Spec.Arrival
	}
	// The scheduler's remaining-work estimate, exactly as the allocator
	// sees it (§3.1 fit with the beginning-state prior as fallback).
	est := d.cfg.PriorEpochs
	if j.LossFit.Len() >= 5 {
		if m, err := j.LossFit.Fit(); err == nil {
			st.LossFit = &LossFitStatus{
				B0: m.B0, B1: m.B1, B2: m.B2,
				MaxLoss: m.MaxLoss, Residual: m.Residual,
				Samples: j.LossFit.Len(),
			}
			if steps, err := m.StepsToConverge(j.Spec.Threshold, 1, 3); err == nil {
				est = steps
			}
		}
	}
	st.EstTotalEpochs = est
	if rem := est - j.Progress; rem > 0 {
		st.EstRemainingEpochs = rem
	}
	return st
}

// Status returns one job's status: a shard-lock map lookup plus an atomic
// snapshot load, never blocked by the scheduler.
func (d *Daemon) Status(id int) (JobStatus, error) {
	j := d.reg.get(id)
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.status.Load().st, nil
}

// List returns every job's status in submission order.
func (d *Daemon) List() []JobStatus {
	statuses := make([]JobStatus, 0, 64)
	d.reg.forEach(func(_ int, j *job) {
		statuses = append(statuses, j.status.Load().st)
	})
	// Monotonic ID assignment makes ID order submission order.
	sortStatuses(statuses)
	return statuses
}

func sortStatuses(s []JobStatus) {
	// Insertion-friendly: statuses arrive near-sorted per shard.
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k].ID < s[k-1].ID; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}

// NodeStatus is one node's utilization in GET /v1/cluster.
type NodeStatus struct {
	ID       string             `json:"id"`
	Capacity map[string]float64 `json:"capacity"`
	Used     map[string]float64 `json:"used"`
}

// ClusterStatus is the GET /v1/cluster response.
type ClusterStatus struct {
	SimTime  float64 `json:"simTime"`
	Rounds   int     `json:"rounds"`
	Jobs     int     `json:"jobs"`
	LiveJobs int     `json:"liveJobs"`
	// IntervalOverruns counts Run ticks whose scheduling round outlasted the
	// tick period — the daemon's SLO signal under open-loop load.
	IntervalOverruns int64   `json:"intervalOverruns,omitempty"`
	ClusterShare     float64 `json:"clusterShare"`
	// Scheduler carries the scheduling session's counters (rounds run,
	// tasks migrated).
	Scheduler *core.IncrStats `json:"scheduler,omitempty"`
	// HA is the control-plane role block, present only under internal/ha
	// leadership (-wal-dir with -follow or a held lease).
	HA *HAStatus `json:"ha,omitempty"`
	// SLO is the burn-rate block (slo.go), recomputed at each interval
	// boundary; Build identifies the binary serving this status.
	SLO   *SLOStatus     `json:"slo,omitempty"`
	Build *obs.BuildInfo `json:"build,omitempty"`
	Nodes []NodeStatus   `json:"nodes"`
}

// clusterSnapshot is the RCU-style read-mostly cluster view: built by the
// engine at each interval boundary (and at New/Restore), swapped in with one
// atomic store, served lock-free with a lazily cached JSON encoding.
type clusterSnapshot struct {
	status ClusterStatus
	enc    atomic.Pointer[[]byte]
}

func (s *clusterSnapshot) bytes() []byte {
	if p := s.enc.Load(); p != nil {
		return *p
	}
	b, err := json.Marshal(s.status)
	if err != nil {
		b = []byte(`{"error":"encode failure"}`)
	}
	b = append(b, '\n')
	s.enc.Store(&b)
	return b
}

func resourceMap(r cluster.Resources) map[string]float64 {
	out := make(map[string]float64, cluster.NumResourceTypes)
	for i := cluster.ResourceType(0); i < cluster.NumResourceTypes; i++ {
		if r[i] != 0 {
			out[i.String()] = r[i]
		}
	}
	return out
}

// publishClusterLocked rebuilds the /v1/cluster snapshot from the live
// cluster and swaps it in. Callers hold d.mu; readers never do.
func (d *Daemon) publishClusterLocked() {
	st := ClusterStatus{
		SimTime:          d.now,
		Rounds:           d.rounds,
		Jobs:             d.reg.len(),
		LiveJobs:         int(d.live.Load()),
		IntervalOverruns: d.overruns.Load(),
	}
	is := d.incr.Stats()
	st.Scheduler = &is
	st.HA = d.haStat.Load()
	slo := d.SLO()
	st.SLO = &slo
	build := obs.Build()
	st.Build = &build
	var used, capacity cluster.Resources
	for _, n := range d.cfg.Cluster.Nodes() {
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:       n.ID,
			Capacity: resourceMap(n.Capacity),
			Used:     resourceMap(n.Used()),
		})
		used = used.Add(n.Used())
		capacity = capacity.Add(n.Capacity)
	}
	if capacity[cluster.CPU] > 0 {
		st.ClusterShare = used[cluster.CPU] / capacity[cluster.CPU]
	}
	d.clusterSnap.Store(&clusterSnapshot{status: st})
}

// Cluster reports utilization as of the last scheduling round. Lock-free:
// it loads the engine-published snapshot.
func (d *Daemon) Cluster() ClusterStatus {
	return d.clusterSnap.Load().status
}

// Handler returns the daemon's HTTP API.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs []JobStatus `json:"jobs"`
		}{d.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/explain", d.handleExplain)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/trace", d.handleTrace)
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSONBytes(w, http.StatusOK, d.clusterSnap.Load().bytes())
	})
	mux.HandleFunc("GET /v1/events", d.handleEvents)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /debug/bundle", d.handleDebugBundle)
	return d.instrumented(mux)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			errors.New("serve: submit body too large"))
		return
	}
	req, err := DecodeSubmit(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := d.Submit(req)
	if errors.Is(err, ErrFull) {
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	if errors.Is(err, ErrNotLeader) {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := d.reg.get(id)
	writeJSONBytes(w, http.StatusCreated, j.status.Load().bytes())
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job id %q", r.PathValue("id")))
		return
	}
	j := d.reg.get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSONBytes(w, http.StatusOK, j.status.Load().bytes())
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job id %q", r.PathValue("id")))
		return
	}
	switch err := d.Cancel(id); {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrNotLeader):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		j := d.reg.get(id)
		writeJSONBytes(w, http.StatusOK, j.status.Load().bytes())
	}
}

// handleMetrics exports the recorder counters plus daemon-level gauges in
// Prometheus text format.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.writeMetrics(w)
}

// writeMetrics renders the full exposition to any writer — the /metrics
// handler and the debug bundle (bundle.go) share it. Only the unsynchronized
// recorder needs the engine mutex; everything else reads atomics and
// snapshots.
func (d *Daemon) writeMetrics(w io.Writer) {
	e := metrics.NewExporter(w)
	d.mu.Lock()
	d.drainArrivalsLocked()
	d.rec.WritePrometheus(e)
	d.mu.Unlock()
	// API latency is recorded lock-free by the middleware into the daemon's
	// own histogram.
	if d.apiHist.Count() > 0 {
		e.Histogram("optimus_api_request_duration_seconds",
			"Wall-clock latency of optimusd API requests.", &d.apiHist)
	}
	byState := map[JobState]int{}
	d.reg.forEach(func(_ int, j *job) {
		byState[j.status.Load().st.State]++
	})
	e.Counter("optimusd_rounds_total",
		"Scheduling rounds executed by the event loop.", float64(d.roundsN.Load()))
	e.Counter("optimusd_jobs_rejected_total",
		"Submissions rejected by admission control.", float64(d.rejected.Load()))
	e.Counter("optimusd_jobs_cancelled_total",
		"Jobs cancelled by their owners.", float64(d.cancelledN.Load()))
	e.Counter("optimusd_interval_overruns_total",
		"Scheduling rounds that outlasted the wall-clock tick.", float64(d.overruns.Load()))
	e.Counter("optimusd_sse_dropped_total",
		"Events dropped from slow SSE subscriber queues.", float64(d.bus.droppedTotal()))
	e.Gauge("optimusd_sse_subscribers",
		"Currently connected SSE subscribers.", float64(d.bus.numSubscribers()))
	e.Gauge("optimusd_sim_time_seconds",
		"Simulated clock of the event loop.", d.Now())
	e.Gauge("optimusd_uptime_seconds",
		"Wall-clock seconds since daemon start.", time.Since(d.startWall).Seconds())
	for _, s := range []JobState{StatePending, StateWaiting, StateRunning, StateDone, StateCancelled} {
		e.Gauge("optimusd_jobs_"+string(s),
			"Jobs currently in state "+string(s)+".", float64(byState[s]))
	}
	if l := d.wlog.Load(); l != nil {
		ws := l.Stats()
		e.Counter("optimus_wal_appends_total",
			"Records appended to the write-ahead log this process.", float64(ws.Appends))
		e.Counter("optimus_wal_fsyncs_total",
			"Fsync syscalls issued by the write-ahead log.", float64(ws.Fsyncs))
		e.Counter("optimus_wal_bytes_total",
			"Bytes appended to the write-ahead log this process.", float64(ws.Bytes))
		e.Counter("optimus_wal_checkpoints_total",
			"Snapshot checkpoint/compaction cycles this process.", float64(ws.Checkpoints))
		e.Counter("optimus_wal_append_errors_total",
			"Failed write-ahead log appends.", float64(d.walErrs.Load()))
		e.Counter("optimus_wal_replayed_records_total",
			"Records applied from the log at startup or while following.",
			float64(d.walReplayed.Load()))
		e.Gauge("optimus_wal_segments",
			"Live segment files in the write-ahead log directory.", float64(ws.Segments))
		e.Gauge("optimus_wal_last_seq",
			"Last assigned write-ahead log sequence number.", float64(ws.LastSeq))
		e.Gauge("optimus_wal_durable_seq",
			"Last write-ahead log sequence known to be on stable storage.",
			float64(ws.DurableSeq))
	}
	if ha := d.haStat.Load(); ha != nil {
		leader := 0.0
		if ha.Role == "leader" {
			leader = 1
		}
		e.Gauge("optimus_ha_leader",
			"1 when this daemon holds the leader lease, 0 when following.", leader)
		e.Gauge("optimus_ha_term",
			"Current lease term observed by this daemon.", float64(ha.Term))
		e.Gauge("optimus_ha_follower_lag_records",
			"Records the follower is behind the leader's log (0 on the leader).",
			float64(ha.LagRecords))
	}
	// Readiness plane (health.go): the aggregate verdict plus one labeled
	// sample per component check.
	ready := d.Readiness()
	e.Gauge("optimus_ready",
		"1 when every readiness check passes, 0 otherwise.", b2f(ready.Ready))
	for name, c := range ready.Components {
		e.Labeled("optimus_component_up",
			"Per-component readiness check results.", "component", name, b2f(c.OK))
	}

	// SLO burn rates (slo.go).
	slo := d.SLO()
	e.Gauge("optimus_slo_overrun_rate",
		"Fraction of scheduling rounds that outlasted the tick.", slo.OverrunRate)
	e.Gauge("optimus_slo_overrun_burn",
		"Interval-overrun budget burn rate (1 = burning exactly at target).", slo.OverrunBurn)
	e.Gauge("optimus_slo_api_p99_seconds",
		"API request latency p99.", slo.APIP99Seconds)
	e.Gauge("optimus_slo_api_slow_rate",
		"Fraction of API requests over the latency target.", slo.APISlowRate)
	e.Gauge("optimus_slo_api_slow_burn",
		"API latency budget burn rate.", slo.APISlowBurn)
	e.Gauge("optimus_slo_api_error_rate",
		"Fraction of API requests answered with a 5xx status.", slo.APIErrorRate)
	e.Gauge("optimus_slo_api_error_burn",
		"API error budget burn rate.", slo.APIErrorBurn)

	bi := obs.Build()
	e.Info("optimus_build_info",
		"Build identity of the running binary.", [][2]string{
			{"version", bi.Version}, {"goversion", bi.GoVersion},
			{"revision", bi.Revision}, {"modified", fmt.Sprint(bi.Modified)},
		})
}

// b2f is 1 for true, 0 for false: a gauge's boolean.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// jsonBufPool recycles encode buffers so responses are marshaled outside
// any lock without a per-request allocation.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf keeps pathological responses (full job lists at scale) from
// pinning large buffers in the pool forever.
const maxPooledBuf = 1 << 20

func writeJSONBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, status, buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(buf)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
