package serve

import (
	"encoding/json"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/wal"
)

// refitDaemonDigest is driveRefitDaemon's digest, recorded when the daemon
// still refit each job serially inside buildStatus.
const refitDaemonDigest = 0x8e5e8bb060baf444

// refitDaemon is a 32-node daemon, wide enough to run every submitted job.
func refitDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := New(Config{
		Cluster: cluster.Uniform(32, cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}),
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveRefitDaemon runs a 30-round daemon with a WAL in dir: twelve jobs
// submitted up front, three more every tenth round. After each Step it
// checks that the refit histogram grew by exactly the number of jobs whose
// loss fitter gained a sample and passes buildStatus' 5-sample gate, and
// folds the round's List() (wall-clock submit times cleared) into the
// returned digest. It also returns the histogram's final count.
func driveRefitDaemon(t *testing.T, dir string) (digest, refits uint64) {
	t.Helper()
	d := refitDaemon(t)
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d.AttachWAL(l)
	models := []string{"resnext-110", "inception-bn", "seq2seq", "dssm"}
	thresholds := []float64{0, 0.001, 0.0005} // default ones finish mid-run
	var ids []int
	add := func(n int) {
		for i := 0; i < n; i++ {
			ids = append(ids, submit(t, d, SubmitRequest{
				Model:     models[len(ids)%len(models)],
				Mode:      "async",
				Threshold: thresholds[len(ids)%len(thresholds)],
			}))
		}
	}
	add(12)
	h := fnv.New64a()
	gens := map[int]uint64{}
	var maxK uint64
	for r := 0; r < 30; r++ {
		if r%10 == 9 {
			add(3)
		}
		before := d.rec.RefitDuration().Count()
		d.Step()
		var k uint64
		for _, id := range ids {
			f := d.reg.get(id).LossFit
			if g := f.Generation(); g != gens[id] {
				gens[id] = g
				if f.Len() >= 5 {
					k++
				}
			}
		}
		if got := d.rec.RefitDuration().Count() - before; got != k {
			t.Fatalf("round %d: refit histogram grew by %d, want %d (jobs that gained a loss point)", r, got, k)
		}
		maxK = max(maxK, k)
		for _, st := range d.List() {
			st.Submitted = time.Time{}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if maxK < 2 {
		t.Fatalf("at most %d refits in a round: the parallel path never ran", maxK)
	}
	return h.Sum64(), d.rec.RefitDuration().Count()
}

// TestDaemonRefitParallelInvisible pins that spreading the round's §3.1
// refits over the cores cannot be observed: the daemon publishes the same
// List() bytes at GOMAXPROCS 1 and 4 as it did with serial refits, the
// refit histogram counts one sample per real refit, and replaying the WAL
// performs the same refits again, in Finish for a log cut before its last
// round record.
func TestDaemonRefitParallelInvisible(t *testing.T) {
	var digests [2]uint64
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		digest, refits := driveRefitDaemon(t, dir)
		runtime.GOMAXPROCS(prev)
		digests[i] = digest

		replayed := refitDaemon(t)
		if _, err := replayed.ReplayWAL(dir); err != nil {
			t.Fatal(err)
		}
		if got := replayed.rec.RefitDuration().Count(); got != refits {
			t.Errorf("GOMAXPROCS %d: replay recorded %d refits, live %d", procs, got, refits)
		}
		// Without the final round record, Finish makes that round's refits.
		var recs []wal.Record
		if _, err := wal.Scan(dir, func(r wal.Record) error {
			r.Payload = append([]byte(nil), r.Payload...) // the scan reuses its buffer
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if recs[len(recs)-1].Type != wal.TypeRound {
			t.Fatalf("log ends in a %s record, want a round", recs[len(recs)-1].Type)
		}
		cut := refitDaemon(t)
		a := cut.NewWALApplier()
		for _, r := range recs[:len(recs)-1] {
			if err := a.Apply(r); err != nil {
				t.Fatal(err)
			}
		}
		a.Finish()
		if got := cut.rec.RefitDuration().Count(); got != refits {
			t.Errorf("GOMAXPROCS %d: replay cut before the last round recorded %d refits, live %d", procs, got, refits)
		}
	}
	if digests != [2]uint64{refitDaemonDigest, refitDaemonDigest} {
		t.Errorf("List() digests %#x at GOMAXPROCS 1 and %#x at 4, want %#x",
			digests[0], digests[1], uint64(refitDaemonDigest))
	}
}
