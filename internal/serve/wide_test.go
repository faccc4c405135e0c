package serve

import (
	"fmt"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/workload"
)

// TestWideRoundsSkipUnpackableRetries is the wide-cluster regression test of
// the shrink-by-one retry: a daemon shaped like bench's rounds-wide workload
// at four times its nodes (150 uncapped async zoo jobs on 2,000 nodes of 32
// CPU / 128 GB), five rounds. The allocator grants against aggregate
// capacity, the grants do not pack, and the round walks thousands of shrink
// steps; nearly every one asks for more than the whole cluster has free, and
// the round kernel skips it without calling the placer. The verdict counts
// work, not wall time: the shrink steps walked (the "place" spans'
// annotations) and the placement-kernel calls (one per round plus one per
// retry). Before the
// headroom bound the same five rounds made 4,656 kernel calls, one per
// shrink step, and took ~9 s on a 2-core host; they now take ~0.2 s.
//
// What the bound cannot catch is a grant that fits the bound but still fails
// to pack. TestClusterEncodeLargeConcurrent keeps its padding because of
// one: a lone ds2 async job (seed 3) on 10,000 nodes of {16 CPU, 80 GB,
// 1 Gbps} is granted 25,345 PS and 20,991 workers. That grant passes the
// bound and is packable (6,335 nodes of 4 PS + 1 worker, 3,664 of 4 workers
// and one of 5 PS), but greedyBalanced places the workers first, about two
// per node, and runs out of room for the PS. Every shrink step the bound
// admits then runs the kernel, O(N + T log N) with the greedy's candidate
// heap (~20 ms on a 2-core host, where the per-task rescan took ~4 s), but
// the steps are so many that the job's first round still runs past 100 s.
func TestWideRoundsSkipUnpackableRetries(t *testing.T) {
	d, err := New(Config{
		Cluster:     cluster.Uniform(2000, cluster.Resources{cluster.CPU: 32, cluster.Memory: 128}),
		Seed:        1,
		Trace:       true,
		TraceBuffer: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	zoo := workload.Zoo()
	for i := 0; i < 150; i++ {
		submit(t, d, SubmitRequest{Model: zoo[i%len(zoo)].Name, Mode: "async", Downscale: 0.1})
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		d.Step()
	}
	kernels, places, steps := 0, 0, 0
	for _, s := range d.tracer.Spans() {
		switch s.Name {
		case "place-kernel":
			kernels++
		case "place":
			places++
			var n int
			if _, err := fmt.Sscanf(s.Detail, "shrink=%d", &n); err != nil {
				t.Fatalf("place span detail %q: %v", s.Detail, err)
			}
			steps += n
		}
	}
	if places != rounds {
		t.Fatalf("%d place spans over %d rounds", places, rounds)
	}
	if kernels != 10 || steps != 4651 {
		t.Errorf("%d placement-kernel calls over %d shrink steps, want 10 over 4651", kernels, steps)
	}
}
