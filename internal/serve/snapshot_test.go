package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optimus/internal/cluster"
)

// TestSnapshotRestoreMidRun is the crash-recovery contract: kill the daemon
// while jobs are mid-training, start a fresh daemon from the snapshot, and
// the jobs resume with their progress, fitted loss model and speed samples
// intact, get re-placed on the first round, and run to completion.
func TestSnapshotRestoreMidRun(t *testing.T) {
	d1 := testDaemon(t)
	slow := submit(t, d1, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 0.01, Downscale: 1})
	fast := submit(t, d1, SubmitRequest{Model: "resnext-110", Mode: "async",
		Threshold: 0.02, Downscale: 1})
	// Run far enough for the fast job to finish and the slow one to have a
	// fitted loss curve.
	for i := 0; i < 40; i++ {
		d1.Step()
	}
	before, err := d1.Status(slow)
	if err != nil {
		t.Fatal(err)
	}
	if before.State != StateRunning || before.LossFit == nil {
		t.Fatalf("precondition: slow job %+v", before)
	}
	fastBefore, _ := d1.Status(fast)
	if fastBefore.State != StateDone {
		t.Fatalf("precondition: fast job state %s", fastBefore.State)
	}

	var buf bytes.Buffer
	if err := d1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// d1 is now "killed": everything below uses a fresh daemon and cluster.

	d2, err := New(Config{Cluster: cluster.Testbed(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d2.Now() != d1.Now() || d2.Rounds() != d1.Rounds() {
		t.Fatalf("clock not restored: now %g/%g rounds %d/%d",
			d2.Now(), d1.Now(), d2.Rounds(), d1.Rounds())
	}

	after, err := d2.Status(slow)
	if err != nil {
		t.Fatal(err)
	}
	// Fitted model state survives the restart byte-for-byte: same
	// observations → same NNLS fit.
	if after.ProgressEpochs != before.ProgressEpochs {
		t.Fatalf("progress %.4f != %.4f", after.ProgressEpochs, before.ProgressEpochs)
	}
	if after.LossFit == nil {
		t.Fatal("loss fit lost in restore")
	}
	if *after.LossFit != *before.LossFit {
		t.Fatalf("loss fit drifted: %+v != %+v", *after.LossFit, *before.LossFit)
	}
	if after.SpeedConfigs != before.SpeedConfigs {
		t.Fatalf("speed configs %d != %d", after.SpeedConfigs, before.SpeedConfigs)
	}
	if after.EstTotalEpochs != before.EstTotalEpochs {
		t.Fatalf("estimated epochs %.2f != %.2f", after.EstTotalEpochs, before.EstTotalEpochs)
	}
	// Running jobs come back as waiting (no deployment yet) ...
	if after.State != StateWaiting || after.Alloc.Tasks() != 0 {
		t.Fatalf("restored job should await re-placement, got %+v", after)
	}
	// ... and the completed job keeps its completion record.
	fastAfter, _ := d2.Status(fast)
	if fastAfter.State != StateDone || fastAfter.JCT != fastBefore.JCT {
		t.Fatalf("done job corrupted by restore: %+v vs %+v", fastAfter, fastBefore)
	}

	// First round after restore re-places the job with a full-size
	// allocation and emits a fresh "placed" event.
	seen := d2.bus.ring.Head()
	d2.Step()
	after, _ = d2.Status(slow)
	if after.State != StateRunning || after.Alloc.Tasks() == 0 {
		t.Fatalf("job not re-placed after restore: %+v", after)
	}
	var placed bool
	evs, _ := d2.bus.window(seen+1, d2.bus.ring.Head())
	for _, ev := range evs {
		if ev.Type == EventPlaced && ev.Job == slow {
			placed = true
		}
	}
	if !placed {
		t.Fatal("no placed event for restored job")
	}

	// And it runs to completion on the restored daemon.
	for i := 0; i < 500 && after.State != StateDone; i++ {
		d2.Step()
		after, _ = d2.Status(slow)
	}
	if after.State != StateDone {
		t.Fatalf("restored job never converged: %+v", after)
	}
	// New submissions don't collide with restored IDs.
	id := submit(t, d2, SubmitRequest{Model: "resnext-110", Mode: "async"})
	if id != 3 {
		t.Fatalf("post-restore ID = %d, want 3", id)
	}
}

func TestRestoreRejectsLiveState(t *testing.T) {
	d1 := testDaemon(t)
	submit(t, d1, SubmitRequest{Model: "resnext-110", Mode: "async"})
	var buf bytes.Buffer
	if err := d1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	live := testDaemon(t)
	live.Step()
	if err := live.Restore(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "live state") {
		t.Fatalf("restore over live state: %v", err)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	cases := map[string]struct{ body, want string }{
		"bad version":   {`{"version":99,"jobs":[]}`, "version 99"},
		"version 1":     {`{"version":1,"jobs":[]}`, "version 1"},
		"not json":      {`nope`, "reading snapshot"},
		"unknown model": {`{"version":2,"jobs":[{"id":1,"model":"no-such","mode":"async"}]}`, "unknown model"},
		"bad mode":      {`{"version":2,"jobs":[{"id":1,"model":"resnet-50","mode":"batch"}]}`, "bad mode"},
		"bad state":     {`{"version":2,"jobs":[{"id":1,"model":"resnet-50","mode":"async","state":"exploded"}]}`, "bad state"},
		"threshold 3":   {`{"version":2,"jobs":[{"id":1,"model":"resnet-50","mode":"async","state":"waiting","threshold":3}]}`, "threshold must be in (0, 0.5]"},
		"downscale 7":   {`{"version":2,"jobs":[{"id":1,"model":"resnet-50","mode":"async","state":"waiting","downscale":7}]}`, "downscale must be in (0, 1]"},
	}
	for name, c := range cases {
		d := testDaemon(t)
		if err := d.Restore(strings.NewReader(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: restore of %q: err %v, want %q", name, c.body, err, c.want)
		}
	}
}

// TestLongJobRestoreKeepsLossFit checks both restore paths on a job with
// more loss samples than the old 512-point snapshot cap: WriteSnapshot →
// Restore, and a WAL whose checkpoint already held > 512 samples replayed
// into a fresh daemon, must each bring back the fitter the live daemon
// holds, so the same LossFit status and EstTotalEpochs.
func TestLongJobRestoreKeepsLossFit(t *testing.T) {
	const rounds, ckpt = 650, 600
	dir := t.TempDir()
	d, l := walTestDaemon(t, dir, 7, ckpt)
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
		Threshold: 1e-4, Downscale: 1})
	for i := 0; i < rounds; i++ {
		d.Step()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := d.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.reg.get(id).LossFit.Len(); before.State == StateDone || before.LossFit == nil || n <= 600 {
		t.Fatalf("precondition: job %+v with %d loss samples", before, n)
	}
	same := func(path string, r *Daemon) {
		t.Helper()
		after, err := r.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if n, want := r.reg.get(id).LossFit.Len(), d.reg.get(id).LossFit.Len(); n != want {
			t.Errorf("%s: %d loss samples, want %d", path, n, want)
		}
		if after.LossFit == nil || *after.LossFit != *before.LossFit {
			t.Errorf("%s: loss fit %+v, want %+v", path, after.LossFit, *before.LossFit)
		}
		if after.EstTotalEpochs != before.EstTotalEpochs {
			t.Errorf("%s: estimated epochs %v, want %v", path, after.EstTotalEpochs, before.EstTotalEpochs)
		}
	}

	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := freshDaemon(t, 7)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	same("snapshot restore", restored)

	replayed := freshDaemon(t, 7)
	stats, err := replayed.ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoint == 0 {
		t.Fatal("expected a checkpoint anchor in the log")
	}
	same("checkpoint + replay", replayed)
}

// TestRestoreRefitsInParallel: Restore fits every restored loss curve in one
// refit pass, so the refit histogram holds one sample per job with a curve
// to fit, rather than none from status builds that fit each one serially.
func TestRestoreRefitsInParallel(t *testing.T) {
	d := testDaemon(t)
	for i := 0; i < 4; i++ {
		submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async",
			Threshold: 0.01, Downscale: 1})
	}
	for i := 0; i < 12; i++ {
		d.Step()
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var k uint64
	for _, js := range snap.Jobs {
		if len(js.LossObs) >= 5 {
			k++
		}
	}
	if k < 2 {
		t.Fatalf("precondition: %d of %d jobs hold 5 loss samples", k, len(snap.Jobs))
	}
	restored := freshDaemon(t, 7)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if got := restored.rec.RefitDuration().Count(); got != k {
		t.Fatalf("restore recorded %d refits, want %d", got, k)
	}
}
