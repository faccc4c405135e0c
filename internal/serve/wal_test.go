package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/wal"
)

// walTestDaemon builds a daemon with a WAL attached in dir.
func walTestDaemon(t *testing.T, dir string, seed int64, ckptRounds int) (*Daemon, *wal.Log) {
	t.Helper()
	d, err := New(Config{
		Cluster:             cluster.Testbed(),
		Seed:                seed,
		StragglerProb:       0.1,
		WALCheckpointRounds: ckptRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachWAL(l)
	return d, l
}

// driveWAL runs a randomized submit/cancel/schedule workload against d.
func driveWAL(t *testing.T, d *Daemon, rng *rand.Rand, rounds int) {
	t.Helper()
	models := []string{"resnext-110", "inception-bn", "seq2seq", "dssm"}
	modes := []string{"async", "sync"}
	var ids []int
	for r := 0; r < rounds; r++ {
		for n := rng.Intn(3); n > 0; n-- {
			id, err := d.Submit(SubmitRequest{
				Model: models[rng.Intn(len(models))],
				Mode:  modes[rng.Intn(len(modes))],
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if len(ids) > 0 && rng.Float64() < 0.15 {
			id := ids[rng.Intn(len(ids))]
			if err := d.Cancel(id); err != nil && err != ErrTerminal {
				t.Fatal(err)
			}
		}
		d.Step()
	}
}

var savedWallRe = regexp.MustCompile(`"savedWall":\s*"[^"]*",?\n?`)

// snapshotBytes renders d's snapshot with the wall timestamp stripped.
func snapshotBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return savedWallRe.ReplaceAll(buf.Bytes(), nil)
}

func freshDaemon(t *testing.T, seed int64) *Daemon {
	t.Helper()
	d, err := New(Config{
		Cluster: cluster.Testbed(),
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWALReplayMatchesSnapshot is the crash-consistency core: across 30
// seeds, rebuilding a daemon by replaying its WAL must yield byte-identical
// state to restoring a graceful-shutdown snapshot. Half the seeds run with
// aggressive checkpoint compaction so replay also exercises the
// snapshot-anchored path (restore checkpoint, re-apply the suffix).
func TestWALReplayMatchesSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ckpt := -1 // no periodic checkpoints
			if seed%2 == 0 {
				ckpt = 3 // compact every 3 rounds
			}
			dir := t.TempDir()
			d, l := walTestDaemon(t, dir, seed, ckpt)
			driveWAL(t, d, rand.New(rand.NewSource(seed*7)), 12)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Graceful path: snapshot → restore into a fresh daemon.
			var snap bytes.Buffer
			if err := d.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored := freshDaemon(t, seed)
			if err := restored.Restore(&snap); err != nil {
				t.Fatal(err)
			}
			want := snapshotBytes(t, restored)

			// Crash path: replay the log into a fresh daemon.
			replayed := freshDaemon(t, seed)
			stats, err := replayed.ReplayWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Duplicates != 0 {
				t.Fatalf("replay found %d duplicate admissions", stats.Duplicates)
			}
			if ckpt > 0 && stats.Checkpoint == 0 {
				t.Fatal("expected a checkpoint anchor in the compacted log")
			}
			got := snapshotBytes(t, replayed)
			if !bytes.Equal(want, got) {
				t.Fatalf("repldiff:\n--- graceful restore ---\n%s\n--- wal replay ---\n%s",
					firstDiff(want, got), firstDiff(got, want))
			}
		})
	}
}

// firstDiff returns a window around the first differing byte for diagnostics.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-120, i+200
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return string(a[lo:hi])
}

// TestWALReplayTornTail cuts the log at every byte offset in its final
// segment (simulating a crash mid-write at any point) and checks that
// replay never errors, is deterministic, and that the repaired log accepts
// further appends.
func TestWALReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	d, l := walTestDaemon(t, dir, 42, -1)
	driveWAL(t, d, rand.New(rand.NewSource(99)), 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	whole, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Every-byte cuts are quadratic in log size; stride keeps it fast while
	// still hitting header, body and boundary offsets.
	for cut := 0; cut < len(whole); cut += 37 {
		cutDir := t.TempDir()
		for _, s := range segs[:len(segs)-1] {
			b, _ := os.ReadFile(s)
			if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(s)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(last)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d1 := freshDaemon(t, 1)
		s1, err := d1.ReplayWAL(cutDir)
		if err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		d2 := freshDaemon(t, 1)
		s2, err := d2.ReplayWAL(cutDir)
		if err != nil {
			t.Fatalf("cut %d: second replay: %v", cut, err)
		}
		if s1 != s2 {
			t.Fatalf("cut %d: replay not deterministic: %+v vs %+v", cut, s1, s2)
		}
		if !bytes.Equal(snapshotBytes(t, d1), snapshotBytes(t, d2)) {
			t.Fatalf("cut %d: replayed states differ", cut)
		}
		// The repaired log must accept the takeover's membership record.
		rl, err := wal.Open(wal.Options{Dir: cutDir, Fsync: wal.FsyncOff})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		d1.AttachWAL(rl)
		if err := d1.WALAppendMembership("standby", 2, "leader"); err != nil {
			t.Fatalf("cut %d: post-repair append: %v", cut, err)
		}
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReadOnlyFollower checks the follower write fence.
func TestWALReadOnlyFollower(t *testing.T) {
	d := freshDaemon(t, 1)
	d.SetReadOnly(true)
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err != ErrNotLeader {
		t.Fatalf("submit on follower: %v, want ErrNotLeader", err)
	}
	if err := d.Cancel(1); err != ErrNotLeader {
		t.Fatalf("cancel on follower: %v, want ErrNotLeader", err)
	}
	d.SetReadOnly(false)
	if _, err := d.Submit(SubmitRequest{Model: "resnext-110", Mode: "async"}); err != nil {
		t.Fatalf("submit after promotion: %v", err)
	}
}

// TestWALRestartContinues replays a log, reattaches the repaired log, and
// keeps scheduling — the single-node crash-restart lifecycle. The job and
// interval counters in /metrics read the same after a replay or a restore
// as before the stop.
func TestWALRestartContinues(t *testing.T) {
	dir := t.TempDir()
	d, l := walTestDaemon(t, dir, 7, -1)
	driveWAL(t, d, rand.New(rand.NewSource(7)), 5)
	// One fast job runs to completion, so the completed counter is not 0.
	fast := submit(t, d, SubmitRequest{Model: "resnext-110", Mode: "async"})
	for i := 0; i < 200; i++ {
		if st, _ := d.Status(fast); st.State == StateDone {
			break
		}
		d.Step()
	}
	rounds := d.Rounds()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	counters := func(d *Daemon) [3]string {
		m := metricSamples(t, d)
		if m["optimus_intervals_total"] != m["optimusd_rounds_total"] {
			t.Errorf("intervals %s, rounds %s", m["optimus_intervals_total"], m["optimusd_rounds_total"])
		}
		return [3]string{m["optimus_jobs_arrived_total"],
			m["optimus_jobs_completed_total"], m["optimus_intervals_total"]}
	}
	want := counters(d)
	if want[1] == "0" {
		t.Fatalf("precondition: no job completed in %d rounds", rounds)
	}

	d2 := freshDaemon(t, 7)
	if _, err := d2.ReplayWAL(dir); err != nil {
		t.Fatal(err)
	}
	if d2.Rounds() != rounds {
		t.Fatalf("replayed rounds %d, want %d", d2.Rounds(), rounds)
	}
	if got := counters(d2); got != want {
		t.Errorf("arrived, completed, intervals after replay %v, want %v", got, want)
	}
	var snap bytes.Buffer
	if err := d.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := freshDaemon(t, 7)
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if got := counters(restored); got != want {
		t.Errorf("arrived, completed, intervals after restore %v, want %v", got, want)
	}
	l2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	d2.AttachWAL(l2)
	id, err := d2.Submit(SubmitRequest{Model: "dssm", Mode: "async"})
	if err != nil {
		t.Fatal(err)
	}
	d2.Step()
	st, err := d2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning && st.State != StateWaiting {
		t.Fatalf("post-restart job state %q", st.State)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// The continued log must itself replay cleanly.
	d3 := freshDaemon(t, 7)
	if stats, err := d3.ReplayWAL(dir); err != nil || stats.Duplicates != 0 {
		t.Fatalf("replay of continued log: %+v err=%v", stats, err)
	}
	if _, err := d3.Status(id); err != nil {
		t.Fatalf("job submitted after restart missing from replay: %v", err)
	}
}

// TestFollowerMatchesLeader tails a leader's log into a follower after every
// round, the way an HA standby does, and requires the follower to serve what
// the leader serves: the same job statuses, nodes included, and the same
// checkpoint. The workload has submits, cancels, straggler faults and
// completions, so every job record type is tailed.
func TestFollowerMatchesLeader(t *testing.T) {
	var faults, completions int
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		leader, l := walTestDaemon(t, dir, seed, -1)
		follower := freshDaemon(t, seed)
		applier := follower.NewWALApplier()
		rng := rand.New(rand.NewSource(seed))
		models := []string{"resnext-110", "inception-bn", "seq2seq", "dssm"}
		modes := []string{"async", "sync"}
		var ids []int
		for r := 1; r <= 12; r++ {
			for n := rng.Intn(3); n > 0; n-- {
				ids = append(ids, submit(t, leader, SubmitRequest{
					Model: models[rng.Intn(len(models))], Mode: modes[rng.Intn(len(modes))]}))
			}
			if len(ids) > 0 && rng.Float64() < 0.15 {
				if err := leader.Cancel(ids[rng.Intn(len(ids))]); err != nil && err != ErrTerminal {
					t.Fatal(err)
				}
			}
			leader.Step()
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if _, err := wal.ScanFrom(dir, applier.AppliedSeq(), applier.Apply); err != nil {
				t.Fatalf("seed %d round %d: tail: %v", seed, r, err)
			}
			want, got := leader.List(), follower.List()
			if len(want) != len(got) {
				t.Fatalf("seed %d round %d: follower lists %d jobs, leader %d", seed, r, len(got), len(want))
			}
			for i := range want {
				if !want[i].Submitted.Equal(got[i].Submitted) {
					t.Fatalf("seed %d round %d: job %d submitted %v on the follower, %v on the leader",
						seed, r, want[i].ID, got[i].Submitted, want[i].Submitted)
				}
				got[i].Submitted = want[i].Submitted
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("seed %d round %d: job status differs\nleader:   %+v\nfollower: %+v",
						seed, r, want[i], got[i])
				}
				if want[i].Straggling {
					faults++
				}
				if want[i].State == StateDone {
					completions++
				}
			}
			if w, g := snapshotBytes(t, leader), snapshotBytes(t, follower); !bytes.Equal(w, g) {
				t.Fatalf("seed %d round %d: checkpoints differ\n--- leader ---\n%s\n--- follower ---\n%s",
					seed, r, firstDiff(w, g), firstDiff(g, w))
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if faults == 0 || completions == 0 {
		t.Fatalf("workload too tame: %d straggling and %d done job-rounds", faults, completions)
	}
}
