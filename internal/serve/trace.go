package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"optimus/internal/core"
	"optimus/internal/obs"
)

// ErrTracingDisabled rejects trace/explain requests on a daemon started
// without Config.Trace.
var ErrTracingDisabled = errors.New("serve: tracing disabled (start optimusd with -trace)")

// ExplainResponse is the GET /v1/jobs/{id}/explain body: the job's current
// state plus its recorded decision history, oldest first — one decision per
// round the job was scheduled in: its §4.1 inputs and grant and its §4.2
// placement. History is bounded by obs.DefaultAuditBuffer decisions over all
// jobs; long-lived daemons see a suffix of very old jobs.
type ExplainResponse struct {
	Job       int             `json:"job"`
	State     JobState        `json:"state"`
	Alloc     core.Allocation `json:"alloc"`
	Decisions []obs.Decision  `json:"decisions"`
}

// Explain returns one job's decision history. ErrTracingDisabled when the
// daemon runs without tracing, ErrNotFound for unknown jobs.
func (d *Daemon) Explain(id int) (ExplainResponse, error) {
	if d.audit == nil {
		return ExplainResponse{}, ErrTracingDisabled
	}
	j := d.reg.get(id)
	if j == nil {
		return ExplainResponse{}, ErrNotFound
	}
	st := j.status.Load().st
	resp := ExplainResponse{Job: id, State: st.State, Alloc: st.Alloc}
	// The audit ring has its own lock; no daemon lock is held here at all.
	resp.Decisions = d.audit.Decisions(id)
	return resp, nil
}

// handleTrace serves the span ring as Chrome trace-event JSON, loadable in
// Perfetto / chrome://tracing.
func (d *Daemon) handleTrace(w http.ResponseWriter, r *http.Request) {
	if d.tracer == nil {
		writeError(w, http.StatusNotFound, ErrTracingDisabled)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, d.tracer.Spans())
}

func (d *Daemon) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("serve: bad job id "+strconv.Quote(r.PathValue("id"))))
		return
	}
	resp, err := d.Explain(id)
	switch {
	case errors.Is(err, ErrTracingDisabled), errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// statusCapture records the response status for SLO error accounting. Only
// non-streaming handlers are wrapped, so losing the Flusher upgrade is fine.
type statusCapture struct {
	http.ResponseWriter
	status int
}

func (s *statusCapture) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// instrumented wraps the API mux with latency observation into the
// optimus_api_request_duration_seconds histogram plus the SLO slow/error
// counters (slo.go). The SSE stream is exempt: its requests intentionally
// last for the subscriber's lifetime and would only pollute the latency
// distribution.
func (d *Daemon) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/events" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sc := &statusCapture{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sc, r)
		// Lock-free: the atomic histogram keeps the middleware off every
		// daemon lock (the old path serialized all requests on d.mu here).
		elapsed := time.Since(start)
		d.apiHist.Observe(elapsed.Seconds())
		if elapsed > d.cfg.SLOAPILatencyTarget {
			d.apiSlow.Add(1)
		}
		if sc.status >= 500 {
			d.apiErrs.Add(1)
		}
	})
}
