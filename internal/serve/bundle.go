package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"optimus/internal/obs"
	"optimus/internal/wal"
)

// A debug bundle is the daemon's black box: one self-contained JSON document
// holding everything needed to reconstruct an incident after the fact — the
// flight-recorder tail, goroutine stacks, a Prometheus snapshot, tracer
// spans, the audit tail, WAL counters, HA state and build info. It is served
// live at GET /debug/bundle and written to disk on fail-stop and SIGQUIT
// (cmd/optimusd), so a kill -9'd or fail-stopped leader leaves evidence
// behind. optimus-trace bundle fetches, pretty-prints and diffs them.

// Caps keep a bundle readable and a few hundred KB, not unbounded: the
// flight tail is the incident window, spans/audit are recent context.
const (
	bundleFlightEvents = 2048
	bundleSpans        = 256
	bundleAuditEvents  = 256
	bundleStackBytes   = 1 << 20
)

// Bundle is the GET /debug/bundle document.
type Bundle struct {
	Written time.Time     `json:"written"`
	Reason  string        `json:"reason"`
	Build   obs.BuildInfo `json:"build"`

	UptimeSeconds float64 `json:"uptimeSeconds"`
	SimTime       float64 `json:"simTime"`
	Rounds        int     `json:"rounds"`

	Ready   ReadyStatus   `json:"ready"`
	SLO     SLOStatus     `json:"slo"`
	HA      *HAStatus     `json:"ha,omitempty"`
	WAL     *wal.Stats    `json:"wal,omitempty"`
	Cluster ClusterStatus `json:"cluster"`

	// Flight is the recorder tail, oldest first — the incident narrative.
	Flight []obs.FlightEvent `json:"flight"`
	// Spans / Decisions are present only on a -trace daemon.
	Spans     []obs.Span     `json:"spans,omitempty"`
	Decisions []obs.Decision `json:"decisions,omitempty"`

	// Goroutines is the full runtime.Stack dump; Metrics is the Prometheus
	// text exposition at capture time.
	Goroutines string `json:"goroutines"`
	Metrics    string `json:"metrics"`
}

// DebugBundle captures the daemon's current state. Safe to call from any
// goroutine, including a fail-stop path racing the engine: every source is
// an atomic, a snapshot, or its own lock.
func (d *Daemon) DebugBundle(reason string) Bundle {
	b := Bundle{
		Written:       time.Now(),
		Reason:        reason,
		Build:         obs.Build(),
		UptimeSeconds: time.Since(d.startWall).Seconds(),
		SimTime:       d.Now(),
		Rounds:        d.Rounds(),
		Ready:         d.Readiness(),
		SLO:           d.SLO(),
		HA:            d.haStat.Load(),
		Cluster:       d.Cluster(),
		Flight:        d.flight.Tail(bundleFlightEvents),
	}
	if ws, ok := d.WALStats(); ok {
		b.WAL = &ws
	}
	if d.tracer != nil {
		spans := d.tracer.Spans()
		if len(spans) > bundleSpans {
			spans = spans[len(spans)-bundleSpans:]
		}
		b.Spans = spans
	}
	if d.audit != nil {
		b.Decisions = tailOf(d.audit.Decisions(-1), bundleAuditEvents)
	}
	stack := make([]byte, bundleStackBytes)
	b.Goroutines = string(stack[:runtime.Stack(stack, true)])
	var mb bytes.Buffer
	d.writeMetrics(&mb)
	b.Metrics = mb.String()
	return b
}

func tailOf[T any](s []T, n int) []T {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// WriteBundle captures a bundle and writes it to path as indented JSON via a
// temp-file rename, so a crash mid-write never leaves a truncated document.
func (d *Daemon) WriteBundle(path, reason string) error {
	b, err := json.MarshalIndent(d.DebugBundle(reason), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bundle-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// handleDebugBundle serves a freshly captured bundle.
func (d *Daemon) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.DebugBundle("api"))
}
