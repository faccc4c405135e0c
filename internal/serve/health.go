package serve

import (
	"fmt"
	"net/http"
	"time"

	"optimus/internal/obs"
)

// This file is the daemon's readiness plane. /healthz stays a bare liveness
// probe (the process is up and serving HTTP); GET /readyz is the traffic
// gate: per-component checks that say whether this daemon should receive
// load right now. A leader is ready when its engine ticked recently and its
// WAL is appendable; a follower is ready when its replication lag is within
// bound; a fail-stopped daemon is never ready again.

// ComponentHealth is one readiness check's result.
type ComponentHealth struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyStatus is the GET /readyz body: the aggregate verdict plus every
// component check that produced it.
type ReadyStatus struct {
	Ready      bool                       `json:"ready"`
	Components map[string]ComponentHealth `json:"components"`
}

// Readiness evaluates the per-component checks. Lock-free: every input is
// an atomic or a snapshot.
func (d *Daemon) Readiness() ReadyStatus {
	comps := make(map[string]ComponentHealth, 4)
	ready := true
	add := func(name string, ok bool, detail string) {
		comps[name] = ComponentHealth{OK: ok, Detail: detail}
		if !ok {
			ready = false
		}
	}

	if r := d.failStop.Load(); r != nil {
		add("failstop", false, *r)
	}

	ha := d.haStat.Load()
	follower := d.readOnly.Load() || (ha != nil && ha.Role != "leader")
	if follower {
		// A follower runs no scheduling rounds; its readiness is how far its
		// replay trails the leader's log.
		lag := uint64(0)
		if ha != nil {
			lag = ha.LagRecords
		}
		add("ha", lag <= maxFollowerLag,
			fmt.Sprintf("follower lag=%d records (bound %d)", lag, maxFollowerLag))
	} else {
		if ha != nil {
			add("ha", true, "leader term="+fmt.Sprint(ha.Term))
		}
		age := time.Since(time.Unix(0, d.lastRoundWall.Load()))
		bound := engineStaleTicks * d.cfg.Tick
		add("engine", age <= bound,
			fmt.Sprintf("last round %s ago (bound %s)", age.Round(time.Millisecond), bound))
	}

	if l := d.wlog.Load(); l != nil {
		if err := l.Err(); err != nil {
			add("wal", false, err.Error())
		} else {
			add("wal", true, "appendable")
		}
	}

	return ReadyStatus{Ready: ready, Components: comps}
}

// FailStop permanently marks the daemon not-ready and read-only: the
// terminal transition after a lost leader lease or an unrecoverable
// durability fault. The caller typically writes a debug bundle and exits;
// a test daemon just observes /readyz flip to 503.
func (d *Daemon) FailStop(reason string) {
	d.failStop.Store(&reason)
	d.readOnly.Store(true)
	d.flight.Record("daemon", obs.SevError, "fail-stop", obs.KS("reason", reason))
}

// FailStopped reports whether FailStop was called and with what reason.
func (d *Daemon) FailStopped() (string, bool) {
	if r := d.failStop.Load(); r != nil {
		return *r, true
	}
	return "", false
}

// handleReadyz serves the readiness verdict: 200 when every component check
// passes, 503 with the failing components otherwise.
func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := d.Readiness()
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
