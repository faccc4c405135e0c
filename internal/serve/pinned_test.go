package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/obs"
)

// pinnedDaemonRun is one seeded daemon scenario whose schedule was recorded
// bit for bit before the daemon and sim.Run shared one scheduling-round
// kernel. digest folds every job's published state, (PS, workers), node
// list, progress and completion time after each Step; retries is the number
// of shrink-by-one placement attempts the run made.
type pinnedDaemonRun struct {
	seed    int64
	digest  uint64
	retries int
}

// pinnedSubmits are the jobs of the pinned scenario, one submitted per
// round.
var pinnedSubmits = []SubmitRequest{
	{Model: "resnext-110", Mode: "async", Downscale: 0.3},
	{Model: "inception-bn", Mode: "async", Downscale: 0.3},
	{Model: "seq2seq", Mode: "sync", Downscale: 0.3},
	{Model: "dssm", Mode: "async", Downscale: 0.3},
	{Model: "resnet-50", Mode: "async", Downscale: 0.1},
	{Model: "resnext-110", Mode: "sync", Downscale: 0.3},
	{Model: "seq2seq", Mode: "async", Downscale: 0.3},
	{Model: "inception-bn", Mode: "async", Downscale: 0.3},
}

// drivePinnedDaemon runs the pinned scenario on seed: twelve 16-CPU nodes,
// onto which the uncapped async jobs' allocations do not pack; one job
// submitted in each of the first eight rounds; the long resnet-50 job
// cancelled mid-run, before round 16; forty Steps in all. Changing it invalidates the table
// below.
func drivePinnedDaemon(t *testing.T, seed int64, trace bool) (uint64, *Daemon) {
	t.Helper()
	d, err := New(Config{
		Cluster:       cluster.Uniform(12, cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}),
		Seed:          seed,
		StragglerProb: 0.1,
		Trace:         trace,
		TraceBuffer:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	var ids []int
	for r := 0; r < 40; r++ {
		if r < len(pinnedSubmits) {
			ids = append(ids, submit(t, d, pinnedSubmits[r]))
		}
		if r == 15 {
			if err := d.Cancel(ids[4]); err != nil {
				t.Fatal(err)
			}
		}
		d.Step()
		for _, id := range ids {
			st, err := d.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(st.State))
			put(uint64(st.Alloc.PS))
			put(uint64(st.Alloc.Workers))
			for _, n := range st.Nodes {
				h.Write([]byte(n))
				h.Write([]byte{0})
			}
			put(math.Float64bits(st.ProgressEpochs))
			put(math.Float64bits(st.DoneAtSim))
		}
	}
	return h.Sum64(), d
}

// placeRetries counts a traced daemon's placement kernels beyond one per
// "place" span: the placement session makes one kernel call per Place, so
// the rest are shrink-by-one retries.
func placeRetries(t *testing.T, tr *obs.Tracer) int {
	t.Helper()
	spans := tr.Spans()
	if int64(len(spans)) != tr.Len() {
		t.Fatalf("trace ring kept %d of %d spans", len(spans), tr.Len())
	}
	n := 0
	for _, s := range spans {
		switch s.Name {
		case "place-kernel":
			n++
		case "place":
			n--
		}
	}
	return n
}

// TestDaemonSchedulePinned requires every pinned scenario to reproduce its
// recorded schedule and retry count exactly, traced or not, and the table
// to take the shrink-retry path.
func TestDaemonSchedulePinned(t *testing.T) {
	if len(pinnedDaemonTable) == 0 {
		t.Fatal("empty pinned table")
	}
	retries := 0
	for _, want := range pinnedDaemonTable {
		digest, _ := drivePinnedDaemon(t, want.seed, false)
		traced, d := drivePinnedDaemon(t, want.seed, true)
		if traced != digest {
			t.Errorf("seed %d: tracing moved a decision: digest %#x, untraced %#x", want.seed, traced, digest)
		}
		got := pinnedDaemonRun{want.seed, digest, placeRetries(t, d.tracer)}
		if got != want {
			t.Errorf("schedule changed\n got  %s\n want %s", pinnedDaemonString(got), pinnedDaemonString(want))
		}
		retries += got.retries
	}
	if retries == 0 {
		t.Error("no pinned scenario took the shrink-retry path, so the table does not guard it")
	}
}

func pinnedDaemonString(p pinnedDaemonRun) string {
	return fmt.Sprintf("{%d, %#x, %d},", p.seed, p.digest, p.retries)
}

// pinnedDaemonTable was recorded at the parent of the round-kernel
// extraction (ac480b9) by running drivePinnedDaemon and placeRetries.
var pinnedDaemonTable = []pinnedDaemonRun{
	{1, 0xe40284efa05a1f6a, 59},
	{2, 0xba7be3a8df1a6272, 65},
	{3, 0xf5746d2e2ca15a21, 60},
}

// pinnedDaemonMigrations is each pinned seed's §5.4 migration cost,
// recorded at aa3be53, where the placement session still had clean and
// partial tiers: the tasks the untraced daemon's session moved to another
// node over the forty Steps (each one a checkpoint-restart) and the rounds it
// placed, of every tier.
var pinnedDaemonMigrations = map[int64][2]uint64{1: {127, 40}, 2: {154, 40}, 3: {98, 40}}

// TestDaemonMigrationsPinned requires every pinned scenario to reproduce its
// recorded migration count and placement rounds.
func TestDaemonMigrationsPinned(t *testing.T) {
	if len(pinnedDaemonMigrations) != len(pinnedDaemonTable) {
		t.Fatalf("pinned migrations cover %d seeds, want %d", len(pinnedDaemonMigrations), len(pinnedDaemonTable))
	}
	for seed, want := range pinnedDaemonMigrations {
		_, d := drivePinnedDaemon(t, seed, false)
		st := d.Cluster().Scheduler
		if got := [2]uint64{st.TasksMigrated, st.PlaceFull + st.PlaceClean + st.PlacePartial}; got != want {
			t.Errorf("seed %d: %d tasks migrated over %d placement rounds, want %d over %d", seed, got[0], got[1], want[0], want[1])
		}
	}
}
