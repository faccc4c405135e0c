package sim

import (
	"optimus/internal/chaos"
	"optimus/internal/metrics"
)

// Fault semantics in the discrete-time simulator (§5 resilience):
//
//   - Jobs checkpoint at every scheduling-interval boundary (the simulator's
//     stand-in for §5.4's periodic HDFS checkpoints). A chaos CheckpointFail
//     makes one boundary write fail, widening the next rollback window.
//   - A NodeCrash kills every task placed on the node at the crash instant;
//     a TaskKill kills one of the job's tasks. Either way the incarnation is
//     lost: the job rolls back to its last checkpoint (the progress since is
//     counted as wasted work), its data chunks and tasks are requeued, and at
//     its next placement it pays the §5.4 checkpoint-restore pause (plus any
//     RecoveryDelay), counted as recovery time.
//   - A crashed node is unavailable to placement until its outage ends.
//   - Straggler faults degrade one job at the fault's severity; policies that
//     handle stragglers (§5.2) replace the slow worker after one detection
//     interval, which counts as one task restart. NetworkSlow degrades every
//     job for intervals overlapping the outage window.
//
// Everything is driven by the interval grid and the chaos schedule alone, so
// a seeded schedule replays byte-identically.
type faultRuntime struct {
	inj *chaos.Injector
	rec *metrics.Recorder
	// nodeDownUntil maps node ID → end of its current outage.
	nodeDownUntil map[string]float64
	netSlowUntil  float64
	netSlowSev    float64
}

func newFaultRuntime(s *chaos.Schedule, rec *metrics.Recorder) (*faultRuntime, error) {
	if s == nil || s.Len() == 0 {
		return nil, nil
	}
	inj, err := chaos.NewInjector(*s)
	if err != nil {
		return nil, err
	}
	return &faultRuntime{
		inj:           inj,
		rec:           rec,
		nodeDownUntil: make(map[string]float64),
	}, nil
}

// isDown reports whether the node is inside an outage at time t.
func (fr *faultRuntime) isDown(nodeID string, t float64) bool {
	return fr.nodeDownUntil[nodeID] > t
}

// netFactor returns the speed multiplier for an interval starting at t0:
// the NetworkSlow severity while an outage window is open, 1 otherwise.
func (fr *faultRuntime) netFactor(t0 float64) float64 {
	if fr.netSlowUntil > t0 {
		return fr.netSlowSev
	}
	return 1
}

// collect fires the faults scheduled in [t0, t1): it updates outage windows,
// job degradations and checkpoint/recovery markers, and returns the earliest
// crash time per affected job. Call it after placement (crashes must see
// where tasks actually landed) and before advancing progress. With a nil
// active set (fast-forward through an idle stretch) faults still fire so no
// outage is ever lost.
func (fr *faultRuntime) collect(t0, t1 float64, active []*jobState) map[int]float64 {
	byID := make(map[int]*jobState, len(active))
	for _, js := range active {
		byID[js.Spec.ID] = js
	}
	var crashAt map[int]float64
	markCrash := func(id int, t float64) {
		if crashAt == nil {
			crashAt = make(map[int]float64)
		}
		if cur, ok := crashAt[id]; !ok || t < cur {
			crashAt[id] = t
		}
	}
	for _, f := range fr.inj.Window(t0, t1) {
		fr.rec.AddFault()
		at := f.Time
		if at < t0 {
			at = t0 // delivered late after a fast-forward: fires now
		}
		switch f.Kind {
		case chaos.NodeCrash:
			if until := at + f.Duration; until > fr.nodeDownUntil[f.Node] {
				fr.nodeDownUntil[f.Node] = until
			}
			for id, js := range byID {
				if js.Placed && containsNode(js.Nodes, f.Node) {
					markCrash(id, at)
				}
			}
		case chaos.TaskKill:
			if js := byID[f.Job]; js != nil && js.Placed {
				markCrash(f.Job, at)
			}
		case chaos.Straggler:
			if js := byID[f.Job]; js != nil {
				js.Straggling = true
				js.stragglerSev = f.Severity
				js.stragglerUntil = at + f.Duration
			}
		case chaos.NetworkSlow:
			if until := at + f.Duration; until > fr.netSlowUntil {
				fr.netSlowUntil = until
			}
			fr.netSlowSev = f.Severity
		case chaos.CheckpointFail:
			if js := byID[f.Job]; js != nil {
				js.ckptSkip = true
			}
		case chaos.RecoveryDelay:
			if js := byID[f.Job]; js != nil {
				js.restoreDelay += f.Duration
			}
		}
	}
	return crashAt
}

// crash rolls a job back to its last checkpoint at time t: progress since the
// checkpoint becomes wasted work, the deployment is torn down (its tasks and
// data chunks requeue at the next placement) and the restore pause is owed.
func (fr *faultRuntime) crash(js *jobState, rate float64) {
	if wasted := js.Progress - js.ckptProgress; wasted > 0 && rate > 0 {
		fr.rec.AddWastedWork(wasted / rate)
	}
	js.Progress = js.ckptProgress
	fr.rec.AddRestarts(js.Alloc.Tasks())
	js.Undeploy()
	js.needRestore = true
}

func containsNode(nodes []string, id string) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
