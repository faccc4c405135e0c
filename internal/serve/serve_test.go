package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/cluster"
)

// testDaemon builds a daemon over the paper's testbed cluster with noise
// small enough for deterministic-ish assertions.
func testDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func submit(t *testing.T, d *Daemon, req SubmitRequest) int {
	t.Helper()
	id, err := d.Submit(req)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", req, err)
	}
	return id
}

func TestJobLifecycle(t *testing.T) {
	d := testDaemon(t)
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 0.01, Downscale: 1})

	st, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePending {
		t.Fatalf("state before first round = %s, want pending", st.State)
	}

	d.Step()
	st, _ = d.Status(id)
	if st.State != StateRunning {
		t.Fatalf("state after first round = %s, want running", st.State)
	}
	if st.Alloc.PS < 1 || st.Alloc.Workers < 1 {
		t.Fatalf("running job has empty allocation %+v", st.Alloc)
	}
	if len(st.Nodes) == 0 {
		t.Fatal("running job reports no nodes")
	}
	if st.ProgressEpochs <= 0 {
		t.Fatal("no progress after a round")
	}

	for i := 0; i < 500 && st.State != StateDone; i++ {
		d.Step()
		st, _ = d.Status(id)
	}
	if st.State != StateDone {
		t.Fatalf("job never converged; final state %s progress %.1f", st.State, st.ProgressEpochs)
	}
	if st.JCT <= 0 || st.DoneAtSim <= st.ArrivalSim {
		t.Fatalf("bad completion accounting: %+v", st)
	}
	if st.Alloc.Tasks() != 0 {
		t.Fatalf("done job still holds allocation %+v", st.Alloc)
	}

	// Online estimation state must have accumulated while running.
	if st.SpeedConfigs < 5 {
		t.Fatalf("speed estimator saw %d configurations, want ≥ 5 (pre-run profiling)", st.SpeedConfigs)
	}
}

func TestLossFitSurfacesInStatus(t *testing.T) {
	d := testDaemon(t)
	// Slow job: plenty of rounds to accumulate loss observations.
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 0.01, Downscale: 0.5})
	var fitted bool
	for i := 0; i < 120; i++ {
		d.Step()
		st, _ := d.Status(id)
		if st.LossFit != nil {
			if st.LossFit.Samples < 5 {
				t.Fatalf("fit reported from %d samples", st.LossFit.Samples)
			}
			if st.LossFit.MaxLoss <= 0 {
				t.Fatalf("fitted curve has MaxLoss %g", st.LossFit.MaxLoss)
			}
			if st.EstRemainingEpochs <= 0 && st.State == StateRunning {
				t.Fatalf("running job with fit reports no remaining epochs: %+v", st)
			}
			fitted = true
			break
		}
		if st.State == StateDone {
			break
		}
	}
	if !fitted {
		t.Fatal("loss fit never surfaced in status")
	}
}

func TestCancelReleasesResources(t *testing.T) {
	d := testDaemon(t)
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 0.01, Downscale: 1})
	d.Step()
	if st, _ := d.Status(id); st.State != StateRunning {
		t.Fatalf("precondition: job not running, got %s", st.State)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Status(id)
	if st.State != StateCancelled || st.Alloc.Tasks() != 0 {
		t.Fatalf("after cancel: %+v", st)
	}
	// Cancelling again is a conflict.
	if err := d.Cancel(id); err != ErrTerminal {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
	// The next round rebuilds the cluster without the job.
	d.Step()
	cs := d.Cluster()
	if cs.ClusterShare != 0 {
		t.Fatalf("cluster share %.3f after cancelling the only job", cs.ClusterShare)
	}
	if cs.LiveJobs != 0 {
		t.Fatalf("live jobs %d after cancel", cs.LiveJobs)
	}
}

func TestAdmissionControl(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Model: "resnext-110", Mode: "async"}
	submit(t, d, req)
	submit(t, d, req)
	if _, err := d.Submit(req); err != ErrFull {
		t.Fatalf("third submit: %v, want ErrFull", err)
	}
	// Cancelling frees an admission slot.
	if err := d.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(req); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	bad := []string{
		``,
		`not json`,
		`{"model":"no-such-model","mode":"async"}`,
		`{"model":"resnext-110","mode":"batch"}`,
		`{"model":"resnext-110","mode":"async","threshold":-1}`,
		`{"model":"resnext-110","mode":"async","threshold":0.9}`,
		`{"model":"resnext-110","mode":"async","downscale":1.5}`,
		`{"model":"resnext-110","mode":"async","unknown":1}`,
		`{"model":"resnext-110","mode":"async"}{"again":true}`,
	}
	for _, body := range bad {
		if _, err := DecodeSubmit([]byte(body)); err == nil {
			t.Errorf("DecodeSubmit(%q) accepted", body)
		}
	}
	good := `{"model":"resnext-110","mode":"sync","threshold":0.05,"downscale":0.25}`
	req, err := DecodeSubmit([]byte(good))
	if err != nil {
		t.Fatalf("DecodeSubmit(%q): %v", good, err)
	}
	if req.Model != "resnext-110" || req.Mode != "sync" {
		t.Fatalf("decoded %+v", req)
	}
}

func TestSchedulerEventsEmitted(t *testing.T) {
	d := testDaemon(t)
	id := submit(t, d, SubmitRequest{Model: "resnext-110", Mode: "async",
		Threshold: 0.02, Downscale: 1})
	for i := 0; i < 200; i++ {
		d.Step()
		if st, _ := d.Status(id); st.State == StateDone {
			break
		}
	}
	replay, _ := d.bus.window(1, d.bus.ring.Head())
	var kinds []string
	for _, ev := range replay {
		kinds = append(kinds, string(ev.Type))
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []EventType{EventSubmitted, EventPlaced, EventCompleted} {
		if !strings.Contains(joined, string(want)) {
			t.Errorf("event stream missing %q: %s", want, joined)
		}
	}
	// Sequence numbers must be strictly increasing from 1.
	for i, ev := range replay {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay[%d].Seq = %d", i, ev.Seq)
		}
	}
}

// TestRescheduledEventReportsMigrations drives the pinned scenario, whose
// rounds move tasks, and requires each Step's one "rescheduled" event to
// carry the session's last-round migration count, which /metrics exports
// beside the cumulative one and without the removed tier families.
func TestRescheduledEventReportsMigrations(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Uniform(12, cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	moved := 0
	for r := 0; r < 20; r++ {
		if r < len(pinnedSubmits) {
			submit(t, d, pinnedSubmits[r])
		}
		d.Step()
		head := d.bus.ring.Head()
		evs, _ := d.bus.window(seen+1, head)
		seen = head
		var details []string
		for _, ev := range evs {
			if ev.Type == EventRescheduled {
				details = append(details, ev.Detail)
			}
		}
		last := d.Cluster().Scheduler.LastMigrated
		if want := fmt.Sprintf("migrated=%d", last); len(details) != 1 || details[0] != want {
			t.Fatalf("round %d: rescheduled events %q, want one %q", r+1, details, want)
		}
		moved += min(last, 1)
	}
	if moved == 0 {
		t.Fatal("no round migrated a task, so the test does not guard the count")
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st := d.Cluster().Scheduler
	for _, want := range []string{
		fmt.Sprintf("\noptimus_incr_tasks_migrated_total %d\n", st.TasksMigrated),
		fmt.Sprintf("\noptimus_incr_last_tasks_migrated %d\n", st.LastMigrated),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	for _, family := range []string{"optimus_incr_alloc_", "optimus_incr_place_", "optimus_incr_dirty_", "optimus_incr_last_dirty"} {
		if strings.Contains(string(body), family) {
			t.Errorf("/metrics still exposes a %s* family", family)
		}
	}
}

func TestStragglerFaultEvents(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 3,
		StragglerProb: 1.0}) // every running job degrades every round
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 0.01, Downscale: 1})
	d.Step()
	st, _ := d.Status(id)
	if !st.Straggling {
		t.Fatal("job not straggling with StragglerProb=1")
	}
	d.Step() // Optimus replaces the straggler after one detection round
	replay, _ := d.bus.window(1, d.bus.ring.Head())
	var faults, recoveries int
	for _, ev := range replay {
		switch ev.Type {
		case EventFault:
			faults++
		case EventRecovered:
			recoveries++
		}
	}
	if faults == 0 || recoveries == 0 {
		t.Fatalf("faults=%d recoveries=%d, want both > 0", faults, recoveries)
	}
}

func TestEmptyRegistryTicksAdvanceClock(t *testing.T) {
	d := testDaemon(t)
	d.Step()
	d.Step()
	if got := d.Now(); got != 1200 {
		t.Fatalf("Now() = %g after two idle rounds, want 1200", got)
	}
	if d.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", d.Rounds())
	}
}

// scalingSeconds reads the daemon's scaling-time counter from GET /metrics.
func scalingSeconds(t *testing.T, d *Daemon) float64 {
	t.Helper()
	const name = "optimus_scaling_time_seconds_total "
	for _, line := range strings.Split(get(t, d, "/metrics").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s%s: %v", name, v, err)
			}
			return f
		}
	}
	t.Fatalf("GET /metrics has no %s sample", strings.TrimSpace(name))
	return 0
}

// TestScalingPauseCharged pins the daemon's §5.4 pause: a launch and a
// reconfiguration each pause the job for min(ScalingBase, Interval)
// simulated seconds, and only a reconfiguration adds that pause to the
// scaling time (§6.2). A job that kept its configuration has no pause.
func TestScalingPauseCharged(t *testing.T) {
	for _, base := range []float64{0, 12, 900} { // 900 > the 600 s Interval
		t.Run(fmt.Sprint(base), func(t *testing.T) {
			d, err := New(Config{
				Cluster:     cluster.Uniform(12, cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}),
				Seed:        3,
				ScalingBase: base,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := min(base, d.cfg.Interval)
			var ids []int
			var seen int64
			launches, reconfigs := 0, 0
			before := scalingSeconds(t, d)
			for r := 0; r < 20; r++ {
				if r < len(pinnedSubmits) {
					ids = append(ids, submit(t, d, pinnedSubmits[r]))
				}
				d.Step()
				head := d.bus.ring.Head()
				evs, _ := d.bus.window(seen+1, head)
				seen = head
				moved, scaled := map[int]bool{}, 0
				for _, ev := range evs {
					switch ev.Type {
					case EventPlaced:
						launches++
						moved[ev.Job] = true
					case EventScaled:
						reconfigs++
						scaled++
						moved[ev.Job] = true
					}
				}
				for _, id := range ids {
					j := d.reg.get(id)
					switch {
					case moved[id] && j.Pause != want:
						t.Fatalf("round %d: job %d deployed with pause %v, want %v", r, id, j.Pause, want)
					case !moved[id] && j.Placed && j.Pause != 0:
						t.Fatalf("round %d: job %d kept its configuration but paused %v", r, id, j.Pause)
					}
				}
				after := scalingSeconds(t, d)
				if after-before != want*float64(scaled) {
					t.Fatalf("round %d: scaling time grew %v over %d reconfigurations, want %v each",
						r, after-before, scaled, want)
				}
				before = after
			}
			if launches == 0 || reconfigs == 0 {
				t.Fatalf("%d launches and %d reconfigurations: the scenario must make both", launches, reconfigs)
			}
		})
	}
}
