package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/wal"
)

func get(t *testing.T, d *Daemon, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, req)
	return w
}

func TestHealthzLiveness(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, d, "/healthz")
	if w.Code != 200 {
		t.Fatalf("GET /healthz = %d, want 200", w.Code)
	}
	if got := w.Body.String(); got != "ok\n" {
		t.Fatalf("GET /healthz body = %q, want \"ok\\n\"", got)
	}
}

func decodeReady(t *testing.T, w *httptest.ResponseRecorder) ReadyStatus {
	t.Helper()
	var st ReadyStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding /readyz body: %v", err)
	}
	return st
}

func TestReadyzLeaderFresh(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	w := get(t, d, "/readyz")
	st := decodeReady(t, w)
	if w.Code != 200 || !st.Ready {
		t.Fatalf("GET /readyz = %d ready=%v, want 200 ready: %+v", w.Code, st.Ready, st)
	}
	if c, ok := st.Components["engine"]; !ok || !c.OK {
		t.Fatalf("engine component not ok: %+v", st.Components)
	}
}

func TestReadyzEngineStale(t *testing.T) {
	// The engine goes stale after engineStaleTicks Ticks: 10 ns here.
	d, err := New(Config{Cluster: cluster.Testbed(), Tick: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	// Staleness is measured on the wall clock.
	// sleep: outlast the 10 ns bound by more than any clock granularity.
	time.Sleep(2 * time.Millisecond)
	w := get(t, d, "/readyz")
	st := decodeReady(t, w)
	if w.Code != 503 || st.Ready {
		t.Fatalf("stale engine: GET /readyz = %d ready=%v, want 503 not-ready", w.Code, st.Ready)
	}
	if c := st.Components["engine"]; c.OK {
		t.Fatalf("engine component should fail when stale: %+v", c)
	}
	// The next round refreshes the bound's anchor, but the 10ns bound keeps
	// it failing — lengthen the Tick instead to see recovery.
	d.cfg.Tick = time.Hour
	d.Step()
	if st := d.Readiness(); !st.Ready {
		t.Fatalf("after a fresh round, want ready: %+v", st)
	}
}

func TestReadyzFollowerLag(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	d.SetReadOnly(true)
	d.SetHAStatus(HAStatus{Role: "follower", ID: "standby", LagRecords: 3})
	w := get(t, d, "/readyz")
	st := decodeReady(t, w)
	if w.Code != 200 || !st.Ready {
		t.Fatalf("follower lag=3 (bound %d): GET /readyz = %d ready=%v, want ready: %+v",
			maxFollowerLag, w.Code, st.Ready, st)
	}
	if _, ok := st.Components["engine"]; ok {
		t.Fatalf("follower readiness must not check engine freshness: %+v", st.Components)
	}
	d.SetHAStatus(HAStatus{Role: "follower", ID: "standby", LagRecords: 100})
	w = get(t, d, "/readyz")
	st = decodeReady(t, w)
	if w.Code != 503 || st.Ready {
		t.Fatalf("follower lag=100 (bound %d): GET /readyz = %d ready=%v, want not-ready",
			maxFollowerLag, w.Code, st.Ready)
	}
	if c := st.Components["ha"]; c.OK {
		t.Fatalf("ha component should fail on excess lag: %+v", c)
	}
}

func TestReadyzFailStop(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	if st := d.Readiness(); !st.Ready {
		t.Fatalf("want ready before fail-stop: %+v", st)
	}
	d.FailStop("leader lease lost (test)")
	w := get(t, d, "/readyz")
	st := decodeReady(t, w)
	if w.Code != 503 || st.Ready {
		t.Fatalf("after FailStop: GET /readyz = %d ready=%v, want 503 not-ready", w.Code, st.Ready)
	}
	if c := st.Components["failstop"]; c.OK || !strings.Contains(c.Detail, "lease lost") {
		t.Fatalf("failstop component = %+v, want failing with the reason", c)
	}
	if reason, ok := d.FailStopped(); !ok || !strings.Contains(reason, "lease lost") {
		t.Fatalf("FailStopped() = %q, %v", reason, ok)
	}
	// Fail-stop implies read-only: no further acks.
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err != ErrNotLeader {
		t.Fatalf("Submit after FailStop = %v, want ErrNotLeader", err)
	}
	// The fail-stop left black-box evidence.
	found := false
	for _, ev := range d.Flight().Tail(16) {
		if ev.Msg == "fail-stop" {
			found = true
		}
	}
	if !found {
		t.Fatal("no fail-stop event in the flight recorder")
	}
}

func TestReadyzWALUnappendable(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1 forces a segment roll on every append after the first;
	// deleting the directory makes the roll's OpenFile fail, and that failure
	// is sticky — exactly how a dead disk surfaces.
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d.AttachWAL(l)
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if st := d.Readiness(); !st.Components["wal"].OK {
		t.Fatalf("want wal ok while appendable: %+v", st)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err == nil {
		t.Fatal("submit with an unwritable wal dir should fail")
	}
	w := get(t, d, "/readyz")
	st := decodeReady(t, w)
	if w.Code != 503 || st.Ready {
		t.Fatalf("unappendable wal: GET /readyz = %d ready=%v, want 503 not-ready", w.Code, st.Ready)
	}
	if c := st.Components["wal"]; c.OK || c.Detail == "" {
		t.Fatalf("wal component = %+v, want failing with the sticky error", c)
	}
}

func TestDebugBundle(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err != nil {
		t.Fatal(err)
	}
	d.Step()
	d.Step()
	w := get(t, d, "/debug/bundle")
	if w.Code != 200 {
		t.Fatalf("GET /debug/bundle = %d, want 200", w.Code)
	}
	var b Bundle
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if b.Reason != "api" || b.Rounds != 2 {
		t.Fatalf("bundle reason=%q rounds=%d, want api/2", b.Reason, b.Rounds)
	}
	if b.Build.GoVersion == "" {
		t.Fatal("bundle missing build info")
	}
	if len(b.Flight) == 0 {
		t.Fatal("bundle has no flight events")
	}
	rounds := 0
	for _, ev := range b.Flight {
		if ev.Component == "engine" && ev.Msg == "round" {
			rounds++
		}
	}
	if rounds != 2 {
		t.Fatalf("bundle flight tail has %d round events, want 2", rounds)
	}
	if !strings.Contains(b.Metrics, "optimus_ready") {
		t.Fatal("bundle metrics snapshot missing optimus_ready")
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("bundle missing goroutine stacks")
	}

	// WriteBundle is the fail-stop/SIGQUIT path: on-disk and re-parseable.
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := d.WriteBundle(path, "test"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b2 Bundle
	if err := json.Unmarshal(raw, &b2); err != nil {
		t.Fatalf("on-disk bundle is not valid JSON: %v", err)
	}
	if b2.Reason != "test" {
		t.Fatalf("on-disk bundle reason = %q, want test", b2.Reason)
	}
}

// TestFlightRecordAllocBudget pins the daemon's record path at zero
// allocations — the property that lets the recorder stay on by default.
func TestFlightRecordAllocBudget(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	f := d.Flight()
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record("engine", obs.SevDebug, "round",
			obs.KI("round", 1), obs.KI("jobs", 3))
	})
	if allocs != 0 {
		t.Fatalf("flight Record allocates %.1f/op, want 0", allocs)
	}
}

func TestSLOAccounting(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(),
		SLOAPILatencyTarget: time.Nanosecond}) // every request counts as slow
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	get(t, d, "/v1/cluster")
	get(t, d, "/nope") // 404, not a 5xx
	s := d.SLO()
	if s.APISlowRate != 1 {
		t.Fatalf("APISlowRate = %g, want 1 with a 1ns target", s.APISlowRate)
	}
	if s.APIErrorRate != 0 {
		t.Fatalf("APIErrorRate = %g, want 0 (404s are not errors)", s.APIErrorRate)
	}
	if s.APISlowBurn != s.APISlowRate/0.01 {
		t.Fatalf("APISlowBurn = %g, want rate/budget", s.APISlowBurn)
	}
	// The cluster snapshot carries the SLO + build blocks after a round.
	d.Step()
	cs := d.Cluster()
	if cs.SLO == nil || cs.Build == nil {
		t.Fatalf("cluster status missing slo/build blocks: %+v", cs)
	}
}
