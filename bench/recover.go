package main

import (
	"fmt"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/serve"
)

// Recovery is a standby taking over: a fresh daemon rebuilt by
// Daemon.ReplayWAL from the log a live daemon wrote. Replay re-executes every
// estimator Observe/Add and refits at every round record, so it tracks
// lossfit/nnls as much as wal. rounds-dense ends with it, on the log its own
// rounds wrote; the recovery probe runs the same function on a small bed.

// replayedView is the part of a job's status that must survive recovery.
type replayedView struct {
	state    serve.JobState
	progress float64
	ps, w    int
}

// expectAfterReplay is what a replayed daemon must list for a job the live
// daemon listed as st: identical, except that ReplayWAL's final pass
// restarts running jobs as waiting with no allocation (they have no real
// deployment after a takeover).
func expectAfterReplay(st serve.JobStatus) replayedView {
	v := replayedView{state: st.State, progress: st.ProgressEpochs, ps: st.Alloc.PS, w: st.Alloc.Workers}
	if st.State == serve.StateRunning {
		v.state, v.ps, v.w = serve.StateWaiting, 0, 0
	}
	return v
}

// compareLists checks the replayed daemon's job list against the live one.
func compareLists(live, replayed []serve.JobStatus) error {
	if len(live) != len(replayed) {
		return fmt.Errorf("live daemon lists %d jobs, replayed daemon %d", len(live), len(replayed))
	}
	for i, want := range live {
		got := replayed[i]
		if got.ID != want.ID {
			return fmt.Errorf("job list position %d: live id %d, replayed id %d", i, want.ID, got.ID)
		}
		g := replayedView{state: got.State, progress: got.ProgressEpochs, ps: got.Alloc.PS, w: got.Alloc.Workers}
		if w := expectAfterReplay(want); g != w {
			return fmt.Errorf("job %d: replayed %+v, live daemon implies %+v", want.ID, g, w)
		}
	}
	return nil
}

// recovery is one timed takeover.
type recovery struct {
	seconds float64
	records int
}

// recoverFrom replays the log b's daemon has written so far into a fresh
// daemon on the same cluster and checks the result against the live one: no
// duplicate admission, no torn tail, every record applied, the same job
// list. Failed checks go to out. trace numbers the ReplayWAL span.
func recoverFrom(e *env, b *bed, nodes int, out *outcome, trace int64) (recovery, error) {
	if err := b.log.Sync(); err != nil {
		return recovery{}, fmt.Errorf("wal sync before replay: %w", err)
	}
	ws, _ := b.d.WALStats()
	d, err := serve.New(serve.Config{Cluster: cluster.Uniform(nodes, nodeCapacity), Seed: e.seed})
	if err != nil {
		return recovery{}, fmt.Errorf("serve.New: %w", err)
	}
	sp := e.rec.begin(0, trace, "serve", "Daemon.ReplayWAL")
	t0 := time.Now()
	st, err := d.ReplayWAL(b.dir)
	elapsed := time.Since(t0)
	e.rec.end(sp)
	if err != nil {
		return recovery{}, fmt.Errorf("ReplayWAL: %w", err)
	}
	switch {
	case st.Duplicates != 0:
		out.problemf("replay saw %d duplicate submissions", st.Duplicates)
	case st.Torn:
		out.problemf("replay found a torn tail in a synced log")
	case uint64(st.Records) != ws.LastSeq:
		out.problemf("replay applied %d records, the log holds %d", st.Records, ws.LastSeq)
	}
	if err := compareLists(b.d.List(), d.List()); err != nil {
		out.problemf("after replay: %v", err)
	}
	return recovery{seconds: elapsed.Seconds(), records: st.Records}, nil
}
